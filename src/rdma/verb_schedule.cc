#include "rdma/verb_schedule.h"

namespace pandora {
namespace rdma {

namespace {
thread_local int g_verb_phase = -1;
}  // namespace

void SetVerbPhase(int phase) { g_verb_phase = phase; }

int CurrentVerbPhase() { return g_verb_phase; }

}  // namespace rdma
}  // namespace pandora
