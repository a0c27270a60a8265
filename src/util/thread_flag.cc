#include "util/flags.h"
#include "util/thread_pool.h"

namespace imsr::util {

void RegisterThreadFlag(FlagSet* flags) {
  flags->AddInt("threads", 0,
                "process-wide worker pool size (0 = hardware threads)",
                /*min=*/0);
}

void ApplyThreadFlag(const FlagSet& flags) {
  const int64_t threads = flags.GetInt("threads");
  if (threads > 0) SetGlobalThreadCount(static_cast<int>(threads));
}

}  // namespace imsr::util
