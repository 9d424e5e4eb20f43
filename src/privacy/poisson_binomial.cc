#include "poisson_binomial.h"

namespace chameleon::privacy::internal {

#if defined(__x86_64__) || defined(__i386__)

void BuildPmfAvx2(double* f, const double* probs, std::size_t d) {
  BuildPmfLanes<4>(f, probs, d);
}

namespace {

using PmfKernel = void (*)(double*, const double*, std::size_t);

void BuildPmfSse2(double* f, const double* probs, std::size_t d) {
  BuildPmfLanes<2>(f, probs, d);
}

PmfKernel SelectPmfKernel() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? BuildPmfAvx2 : BuildPmfSse2;
}

}  // namespace

void BuildPmf(double* f, const double* probs, std::size_t d) {
  static const PmfKernel kernel = SelectPmfKernel();
  kernel(f, probs, d);
}

#else

void BuildPmf(double* f, const double* probs, std::size_t d) {
  BuildPmfLanes<2>(f, probs, d);
}

#endif

}  // namespace chameleon::privacy::internal
