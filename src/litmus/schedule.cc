#include "litmus/schedule.h"

#include <chrono>
#include <cstdlib>
#include <sstream>

#include "cluster/reconfig.h"
#include "common/clock.h"

namespace pandora {
namespace litmus {

namespace {

const char* SyncModeName(SyncMode sync) {
  return sync == SyncMode::kLockstep ? "lockstep" : "free";
}

// strtol wrapper: full-string decimal parse, no exceptions.
bool ParseInt(const std::string& text, int* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) return false;
  *out = static_cast<int>(value);
  return true;
}

}  // namespace

std::string VerbTokenToString(const VerbToken& token) {
  std::ostringstream out;
  out << token.slot << "." << token.run << "." << token.unit << "."
      << token.access;
  return out.str();
}

bool VerbTokenFromString(const std::string& text, VerbToken* out) {
  std::istringstream fields(text);
  std::string slot_s, run_s, unit_s, access_s;
  if (!std::getline(fields, slot_s, '.') ||
      !std::getline(fields, run_s, '.') ||
      !std::getline(fields, unit_s, '.') ||
      !std::getline(fields, access_s)) {
    return false;
  }
  VerbToken token;
  if (!ParseInt(slot_s, &token.slot) || !ParseInt(run_s, &token.run) ||
      !ParseInt(unit_s, &token.unit) ||
      !ParseInt(access_s, &token.access)) {
    return false;
  }
  *out = token;
  return true;
}

std::string CrashSchedule::ToString() const {
  std::ostringstream out;
  out << "sync=" << SyncModeName(sync);
  if (runs > 0) out << " runs=" << runs;
  for (const CrashDirective& crash : crashes) {
    out << " crash=" << crash.slot << ":" << crash.run << ":"
        << txn::CrashPointName(crash.point) << ":" << crash.occurrence;
  }
  if (rc_fault) out << " rc_fault=1";
  if (kill_memory_node >= 0) out << " kill_mem=" << kill_memory_node;
  if (!verb_order.empty()) {
    out << " vorder=";
    for (size_t i = 0; i < verb_order.size(); ++i) {
      if (i > 0) out << ",";
      out << VerbTokenToString(verb_order[i]);
    }
  }
  if (has_verb_kill) out << " vkill=" << VerbTokenToString(verb_kill);
  if (reconfig != ReconfigKind::kNone) {
    out << " reconfig="
        << (reconfig == ReconfigKind::kJoin ? "join" : "drain");
    if (reconfig_crash >= 0) {
      out << " reconfig_crash="
          << cluster::ReconfigCrashPointName(
                 static_cast<cluster::ReconfigCrashPoint>(reconfig_crash));
    }
    if (reconfig_fence_off) out << " reconfig_fence=0";
    if (reconfig_kill_target) out << " reconfig_kill_target=1";
  }
  return out.str();
}

bool CrashSchedule::Parse(const std::string& text, CrashSchedule* out) {
  CrashSchedule parsed;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "sync") {
      if (value == "lockstep") {
        parsed.sync = SyncMode::kLockstep;
      } else if (value == "free") {
        parsed.sync = SyncMode::kFree;
      } else {
        return false;
      }
    } else if (key == "crash") {
      // slot:run:point:occurrence
      std::istringstream fields(value);
      std::string slot_s, run_s, point_s, occ_s;
      if (!std::getline(fields, slot_s, ':') ||
          !std::getline(fields, run_s, ':') ||
          !std::getline(fields, point_s, ':') ||
          !std::getline(fields, occ_s)) {
        return false;
      }
      CrashDirective crash;
      if (!ParseInt(slot_s, &crash.slot) || !ParseInt(run_s, &crash.run) ||
          !txn::CrashPointFromName(point_s, &crash.point) ||
          !ParseInt(occ_s, &crash.occurrence)) {
        return false;
      }
      parsed.crashes.push_back(crash);
    } else if (key == "runs") {
      if (!ParseInt(value, &parsed.runs) || parsed.runs <= 0) return false;
    } else if (key == "rc_fault") {
      parsed.rc_fault = (value == "1");
    } else if (key == "kill_mem") {
      if (!ParseInt(value, &parsed.kill_memory_node)) return false;
    } else if (key == "vorder") {
      std::istringstream entries(value);
      std::string entry;
      while (std::getline(entries, entry, ',')) {
        VerbToken verb;
        if (!VerbTokenFromString(entry, &verb)) return false;
        parsed.verb_order.push_back(verb);
      }
      if (parsed.verb_order.empty()) return false;
    } else if (key == "vkill") {
      if (!VerbTokenFromString(value, &parsed.verb_kill)) return false;
      parsed.has_verb_kill = true;
    } else if (key == "reconfig") {
      if (value == "join") {
        parsed.reconfig = ReconfigKind::kJoin;
      } else if (value == "drain") {
        parsed.reconfig = ReconfigKind::kDrain;
      } else {
        return false;
      }
    } else if (key == "reconfig_crash") {
      cluster::ReconfigCrashPoint point;
      if (!cluster::ReconfigCrashPointFromName(value.c_str(), &point)) {
        return false;
      }
      parsed.reconfig_crash = static_cast<int>(point);
    } else if (key == "reconfig_fence") {
      parsed.reconfig_fence_off = (value == "0");
    } else if (key == "reconfig_kill_target") {
      parsed.reconfig_kill_target = (value == "1");
    } else {
      return false;
    }
  }
  *out = parsed;
  return true;
}

void LockstepController::PassTurnLocked() {
  const int slots = static_cast<int>(live_.size());
  const int from = turn_;
  turn_ = -1;
  for (int step = 1; step <= slots; ++step) {
    const int next = (from + step) % slots;
    if (live_[static_cast<size_t>(next)]) {
      turn_ = next;
      break;
    }
  }
  cv_.notify_all();
}

void LockstepController::WaitTurnLocked(std::unique_lock<std::mutex>& lock,
                                        int slot) {
  if (cv_.wait_for(lock, std::chrono::microseconds(timeout_us_),
                   [&] { return free_ || turn_ == slot; })) {
    return;
  }
  // The turn holder is blocked outside a crash point: run free from here.
  free_ = true;
  cv_.notify_all();
}

void LockstepController::WaitTurn(int slot) {
  std::unique_lock<std::mutex> lock(mu_);
  WaitTurnLocked(lock, slot);
}

void LockstepController::Arrive(int slot) {
  std::unique_lock<std::mutex> lock(mu_);
  if (free_ || !live_[static_cast<size_t>(slot)]) return;
  if (turn_ == slot) PassTurnLocked();
  WaitTurnLocked(lock, slot);
}

void LockstepController::Retire(int slot) {
  std::lock_guard<std::mutex> lock(mu_);
  live_[static_cast<size_t>(slot)] = false;
  if (turn_ == slot) PassTurnLocked();
}

int LockstepController::timeouts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_ ? 1 : 0;
}

namespace {
// Applied-stream capture bound: litmus windows are tiny (a handful of
// contested words, a few accesses each); 64 tokens is several times the
// largest window any spec produces.
constexpr size_t kAppliedTokenCap = 64;
}  // namespace

VerbOrderController::VerbOrderController(Options options)
    : opts_(std::move(options)),
      current_run_(opts_.slot_nodes.size(), 0),
      pending_(opts_.slot_nodes.size(), {false, VerbToken{}}) {}

void VerbOrderController::BeginRun(int slot, int run) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot >= 0 && static_cast<size_t>(slot) < current_run_.size()) {
    current_run_[static_cast<size_t>(slot)] = run;
  }
}

bool VerbOrderController::MapToken(const rdma::VerbDesc& desc, int* slot,
                                   VerbToken* token) {
  // Caller holds mu_.
  if (!rdma::VerbMutates(desc.kind)) return false;
  int s = -1;
  for (size_t i = 0; i < opts_.slot_nodes.size(); ++i) {
    if (opts_.slot_nodes[i] == desc.src) {
      s = static_cast<int>(i);
      break;
    }
  }
  if (s < 0) return false;
  int unit = -1;
  for (const Options::UnitRange& range : opts_.unit_ranges) {
    if (range.node == desc.dst && range.rkey == desc.rkey &&
        desc.offset >= range.lo && desc.offset < range.hi) {
      unit = range.unit;
      break;
    }
  }
  if (unit < 0) return false;
  const int run = current_run_[static_cast<size_t>(s)];
  const int access = access_counts_[std::make_tuple(s, run, unit)]++;
  token->slot = s;
  token->run = run;
  token->unit = unit;
  token->access = access;
  *slot = s;
  return true;
}

bool VerbOrderController::OnVerbIssue(const rdma::VerbDesc& desc) {
  VerbToken token;
  int slot = -1;
  bool is_kill = false;
  bool in_order = false;
  size_t position = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!MapToken(desc, &slot, &token)) return true;
    pending_[static_cast<size_t>(slot)] = {true, token};
    is_kill = opts_.has_kill && token == opts_.kill;
    if (!is_kill) {
      for (size_t i = 0; i < opts_.order.size(); ++i) {
        if (opts_.order[i] == token) {
          in_order = true;
          position = i;
          break;
        }
      }
    }
  }
  if (in_order || is_kill) {
    // The kill fires only once the whole enforced window has landed; an
    // ordered verb waits for its predecessors. The park is fiber-aware:
    // sibling fibers on the same worker keep running while we hold.
    const size_t wait_until = is_kill ? opts_.order.size() : position;
    const uint64_t deadline = NowNanos() + opts_.hold_timeout_us * 1000;
    bool counted_hold = false;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (diverged_ || cursor_ >= wait_until) break;
        if (!counted_hold) {
          counted_hold = true;
          ++holds_;
        }
      }
      if (NowNanos() > deadline) {
        // Unrealizable order (a predecessor verb is never issued):
        // degrade to free-running rather than wedge the iteration.
        ReleaseAll();
        break;
      }
      SleepForMicros(20);
    }
  }
  if (is_kill) {
    // Halt first so the drop is indistinguishable from the node dying
    // mid-verb (the QP re-checks liveness and fails with "halted").
    if (opts_.fabric != nullptr) opts_.fabric->HaltNode(desc.src);
    std::lock_guard<std::mutex> lock(mu_);
    killed_slot_ = slot;
    pending_[static_cast<size_t>(slot)].first = false;
    return false;
  }
  return true;
}

void VerbOrderController::OnVerbApplied(const rdma::VerbDesc& desc) {
  std::lock_guard<std::mutex> lock(mu_);
  int slot = -1;
  for (size_t i = 0; i < opts_.slot_nodes.size(); ++i) {
    if (opts_.slot_nodes[i] == desc.src) {
      slot = static_cast<int>(i);
      break;
    }
  }
  if (slot < 0 || !pending_[static_cast<size_t>(slot)].first) return;
  const VerbToken token = pending_[static_cast<size_t>(slot)].second;
  pending_[static_cast<size_t>(slot)].first = false;
  if (applied_.size() < kAppliedTokenCap) applied_.push_back(token);
  if (cursor_ < opts_.order.size() && opts_.order[cursor_] == token) {
    ++cursor_;
  }
}

void VerbOrderController::ReleaseAll() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!opts_.order.empty() && cursor_ < opts_.order.size()) {
    diverged_ = true;
  }
  cursor_ = opts_.order.size();
}

bool VerbOrderController::diverged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return diverged_;
}

int VerbOrderController::killed_slot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return killed_slot_;
}

int VerbOrderController::holds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return holds_;
}

std::vector<VerbToken> VerbOrderController::applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_;
}

}  // namespace litmus
}  // namespace pandora
