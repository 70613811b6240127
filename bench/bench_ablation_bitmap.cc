// Ablation: plain rank/select bitmaps vs RRR-compressed bitmaps for the
// layer-linking BMs of the PSO index.
//
// SuccinctEdge keeps plain bitmaps (query-critical select calls); this
// bench quantifies the space the RRR alternative would save and the
// rank/select slowdown it would cost, on bitmaps with the exact density
// profile of BM_ps / BM_so built from LUBM.

#include "bench/bench_util.h"
#include "sds/rrr_bit_vector.h"
#include "sds/succinct_bit_vector.h"
#include "util/rng.h"

int main() {
  using namespace sedge;
  std::printf("=== Ablation: plain vs RRR bitmaps (BM_ps/BM_so profiles) "
              "===\n");
  bench::PrintRow("density", {"plain KiB", "rrr KiB", "plain rank ns",
                              "rrr rank ns", "plain sel ns", "rrr sel ns"});
  // BM_so-style bitmaps: a 1 starts each run; density = pairs/triples.
  for (const double density : {0.9, 0.5, 0.25, 0.1, 0.02}) {
    const uint64_t n = 1 << 20;
    Rng rng(42);
    sds::BitVector bits(n);
    for (uint64_t i = 0; i < n; ++i) bits.Set(i, rng.Bernoulli(density));
    const sds::SuccinctBitVector plain(bits);
    const sds::RrrBitVector rrr(bits);

    const uint64_t ones = plain.ones();
    uint64_t sink = 0;
    const auto time_ns = [&](const std::function<void()>& fn) {
      const int iters = 200000;
      WallTimer timer;
      for (int i = 0; i < iters; ++i) fn();
      return timer.ElapsedMicros() * 1000.0 / iters;
    };
    Rng probe(7);
    const double plain_rank =
        time_ns([&] { sink += plain.Rank1(probe.Uniform(n)); });
    const double rrr_rank =
        time_ns([&] { sink += rrr.Rank1(probe.Uniform(n)); });
    const double plain_sel =
        time_ns([&] { sink += plain.Select1(probe.Uniform(ones) + 1); });
    const double rrr_sel =
        time_ns([&] { sink += rrr.Select1(probe.Uniform(ones) + 1); });

    char label[32];
    std::snprintf(label, sizeof(label), "%.2f", density);
    bench::PrintRow(label,
                    {bench::FormatKb(plain.SizeInBytes()),
                     bench::FormatKb(rrr.SizeInBytes()),
                     bench::FormatMs(plain_rank), bench::FormatMs(rrr_rank),
                     bench::FormatMs(plain_sel), bench::FormatMs(rrr_sel)});
    if (sink == 0xdeadbeef) std::printf("%s", "");  // defeat optimizer
  }
  return 0;
}
