#include "util/cpu.hpp"

namespace mloc::cpu {
namespace {

struct Features {
  bool pclmul = false;
  bool popcnt = false;
};

/// The one CPU check, made on first use.
const Features& features() noexcept {
  static const Features f = [] {
    Features out;
#if defined(__x86_64__)
    __builtin_cpu_init();
    out.pclmul = __builtin_cpu_supports("pclmul") != 0 &&
                 __builtin_cpu_supports("sse4.1") != 0;
    out.popcnt = __builtin_cpu_supports("popcnt") != 0;
#endif
    return out;
  }();
  return f;
}

}  // namespace

bool has_pclmul() noexcept { return features().pclmul; }

bool has_popcnt() noexcept { return features().popcnt; }

}  // namespace mloc::cpu
