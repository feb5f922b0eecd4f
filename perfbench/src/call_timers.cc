// Link-time timers around the coordinator's public calls.
//
// SmallBank and TATP issue their Read / Write / Commit calls inside
// Workload::RunTransaction, where the benchmark cannot put a timer. The
// build links with `--wrap=<symbol>` for each call below (CMakeLists.txt),
// so every call to it from outside coordinator.cc lands in the matching
// Wrap function, which times the real call when the calling thread has
// timers installed. The symbols are the Itanium-mangled names; if a
// signature changes, the __real_ reference stays undefined and the link
// fails instead of silently timing nothing.

#include <string>

#include "common/clock.h"
#include "perfbench.h"

#define PERFBENCH_READ                                              \
  "_ZN7pandora3txn11Coordinator4ReadEjmPNSt7__cxx1112basic_string" \
  "IcSt11char_traitsIcESaIcEEE"
#define PERFBENCH_WRITE "_ZN7pandora3txn11Coordinator5WriteEjmNS_5SliceE"
#define PERFBENCH_COMMIT "_ZN7pandora3txn11Coordinator6CommitEv"
#define PERFBENCH_LOAD_ROW "_ZN7pandora7cluster7Cluster7LoadRowEjmNS_5SliceE"

namespace perfbench {

thread_local CallTimers* t_call_timers = nullptr;
thread_local uint64_t t_rows_loaded = 0;

using pandora::Slice;
using pandora::cluster::Cluster;
using pandora::store::Key;
using pandora::store::TableId;
using pandora::txn::Coordinator;

// A member function and a free function taking the object pointer first
// share one calling convention in the Itanium C++ ABI.
Status RealRead(Coordinator* self, TableId table, Key key, std::string* value)
    __asm__("__real_" PERFBENCH_READ);
Status RealWrite(Coordinator* self, TableId table, Key key, Slice value)
    __asm__("__real_" PERFBENCH_WRITE);
Status RealCommit(Coordinator* self) __asm__("__real_" PERFBENCH_COMMIT);
Status RealLoadRow(Cluster* self, TableId table, Key key, Slice value)
    __asm__("__real_" PERFBENCH_LOAD_ROW);

Status WrapRead(Coordinator* self, TableId table, Key key, std::string* value)
    __asm__("__wrap_" PERFBENCH_READ);
Status WrapWrite(Coordinator* self, TableId table, Key key, Slice value)
    __asm__("__wrap_" PERFBENCH_WRITE);
Status WrapCommit(Coordinator* self) __asm__("__wrap_" PERFBENCH_COMMIT);
Status WrapLoadRow(Cluster* self, TableId table, Key key, Slice value)
    __asm__("__wrap_" PERFBENCH_LOAD_ROW);

Status WrapRead(Coordinator* self, TableId table, Key key,
                std::string* value) {
  CallTimers* timers = t_call_timers;
  if (timers == nullptr) return RealRead(self, table, key, value);
  const uint64_t start = pandora::NowNanos();
  Status status = RealRead(self, table, key, value);
  timers->read.Record(pandora::NowNanos() - start);
  return status;
}

Status WrapWrite(Coordinator* self, TableId table, Key key, Slice value) {
  CallTimers* timers = t_call_timers;
  if (timers == nullptr) return RealWrite(self, table, key, value);
  const uint64_t start = pandora::NowNanos();
  Status status = RealWrite(self, table, key, value);
  timers->write.Record(pandora::NowNanos() - start);
  return status;
}

Status WrapCommit(Coordinator* self) {
  CallTimers* timers = t_call_timers;
  if (timers == nullptr) return RealCommit(self);
  const uint64_t start = pandora::NowNanos();
  Status status = RealCommit(self);
  timers->commit.Record(pandora::NowNanos() - start);
  return status;
}

Status WrapLoadRow(Cluster* self, TableId table, Key key, Slice value) {
  ++t_rows_loaded;
  return RealLoadRow(self, table, key, value);
}

}  // namespace perfbench
