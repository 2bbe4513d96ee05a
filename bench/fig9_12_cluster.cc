// Reproduces Figs. 9–12 (the §5.3 cluster experiments) from one corpus, as
// the paper does: every view below reads the same records.
//
// Fig. 9 (best case):
//  top — distribution of total CPU time per variant, normalized to NR.
//        Paper: SR is the most expensive (1.61-1.90x NR), GRD second, the
//        LAAR variants cheapest with cost proportional to the IC target.
//  bottom — distribution of tuples dropped per variant, normalized to NR.
//        Paper: SR drops up to ~33.6x more than NR with huge variance;
//        dynamic variants stay near NR.
// Fig. 10: application output rate during the load peak, normalized to the
//        over-provisioned non-replicated deployment (NR). Paper: SR averages
//        ~0.67 of NR (as low as 0.37); the LAAR variants stay at >= ~0.91;
//        GRD lands in between but with inconsistent spread (0.62-0.98).
// Fig. 11: total samples processed under failures, normalized to the
//        failure-free NR run.
//  top — pessimistic worst case (one replica of every PE permanently dead,
//        the survivor adversarially chosen): NR drops to ~0; each L.x sits
//        at or above its promised IC (paper: violations never exceed
//        4.7%); GRD is erratic (0.35-0.95); SR stays near its best case.
//  bottom — single random host crash during a High period, recovered after
//        16 s: every replicated variant scores far above its guarantee and
//        L.5 behaves like NR.
// Fig. 12: summary bar chart — mean tuples dropped, mean worst-case IC, and
//        mean cost of every variant, normalized to static active
//        replication (SR). Paper: LAAR variants cost visibly less than SR
//        while their IC scales with the requested level; execution cost
//        tracks the IC guarantee.
//
// The corpus runs the best case, the worst case and the host crash for
// every variant. Each scenario fills only its own record fields, so the
// crash scenario leaves the best- and worst-case numbers unchanged.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/experiment_corpus.h"
#include "laar/common/stats.h"

namespace {

using Records = std::vector<laar::runtime::AppExperimentRecord>;
using Series = std::map<std::string, laar::SampleStats>;

/// One box-plot row per variant, in the paper's plotting order.
void PrintBoxRows(Series& series) {
  for (const char* name : laar::bench::VariantOrder()) {
    laar::bench::PrintBoxRow(name, series[name]);
  }
}

void PrintFig9(const Records& records) {
  laar::bench::PrintHeader("Fig. 9", "best-case CPU time and tuple drops vs NR",
                           "cost: SR > GRD > L.7 > L.6 > L.5 >= NR; drops: SR >> "
                           "dynamic variants");
  Series cpu_ratio;
  Series drop_ratio;
  for (const auto& record : records) {
    const auto* nr = record.Find("NR");
    if (nr == nullptr || nr->cpu_cycles <= 0.0) continue;
    const double nr_drops = static_cast<double>(nr->dropped) + 1.0;  // +1: NR can be 0
    for (const auto& variant : record.variants) {
      cpu_ratio[variant.variant].Add(variant.cpu_cycles / nr->cpu_cycles);
      drop_ratio[variant.variant].Add(
          (static_cast<double>(variant.dropped) + 1.0) / nr_drops);
    }
  }

  std::printf("\n(top) total CPU time / NR:\n");
  PrintBoxRows(cpu_ratio);
  std::printf("\n(bottom) tuples dropped / NR (counts offset by +1):\n");
  PrintBoxRows(drop_ratio);
}

void PrintFig10(const Records& records) {
  laar::bench::PrintHeader("Fig. 10", "output rate during the load peak, / NR",
                           "SR lowest and widest; LAAR variants close to 1; GRD "
                           "inconsistent in between");
  Series ratio;
  for (const auto& record : records) {
    const auto* nr = record.Find("NR");
    if (nr == nullptr || nr->peak_output_rate <= 0.0) continue;
    for (const auto& variant : record.variants) {
      ratio[variant.variant].Add(variant.peak_output_rate / nr->peak_output_rate);
    }
  }
  std::printf("\npeak output rate / NR:\n");
  PrintBoxRows(ratio);
}

void PrintFig11(const Records& records) {
  laar::bench::PrintHeader(
      "Fig. 11", "samples processed under failures, / failure-free NR",
      "worst case: NR ~ 0, L.x >= promised IC, GRD erratic; host crash: all high");
  Series worst_ratio;
  Series crash_ratio;
  laar::SampleStats promise_margin;  // measured - promised, L.x variants
  for (const auto& record : records) {
    const auto* nr = record.Find("NR");
    if (nr == nullptr || nr->processed_best == 0) continue;
    const double reference = static_cast<double>(nr->processed_best);
    for (const auto& variant : record.variants) {
      const double measured = static_cast<double>(variant.processed_worst) / reference;
      worst_ratio[variant.variant].Add(measured);
      crash_ratio[variant.variant].Add(static_cast<double>(variant.processed_crash) /
                                       reference);
      if (variant.promised_ic > 0.0) {
        promise_margin.Add(measured - variant.promised_ic);
      }
    }
  }

  std::printf("\n(top) pessimistic worst case, processed / failure-free NR:\n");
  PrintBoxRows(worst_ratio);
  std::printf("\nL.x measured-minus-promised IC margin: mean=%.4f min=%.4f "
              "(negative = violation; paper sees at most -0.047)\n",
              promise_margin.mean(), promise_margin.min());

  std::printf("\n(bottom) single host crash + 16 s recovery, processed / NR:\n");
  PrintBoxRows(crash_ratio);
}

void PrintFig12(const Records& records) {
  laar::bench::PrintHeader("Fig. 12", "summary: drops / worst-case IC / cost, vs SR",
                           "cost ordering NR < L.5 < L.6 < L.7 < GRD < SR; IC "
                           "ordering NR < L.5 < L.6 < L.7 < SR");
  Series drops;
  Series ic;
  Series cost;
  for (const auto& record : records) {
    const auto* sr = record.Find("SR");
    const auto* nr = record.Find("NR");
    if (sr == nullptr || nr == nullptr || sr->cpu_cycles <= 0.0 ||
        nr->processed_best == 0) {
      continue;
    }
    const double sr_drops = static_cast<double>(sr->dropped) + 1.0;
    for (const auto& variant : record.variants) {
      drops[variant.variant].Add((static_cast<double>(variant.dropped) + 1.0) / sr_drops);
      cost[variant.variant].Add(variant.cpu_cycles / sr->cpu_cycles);
      // Worst-case IC measured against the failure-free NR reference.
      ic[variant.variant].Add(static_cast<double>(variant.processed_worst) /
                              static_cast<double>(nr->processed_best));
    }
  }

  std::printf("\n%-8s %16s %16s %16s\n", "variant", "drops/SR", "worst-case IC",
              "cost/SR");
  for (const char* name : laar::bench::VariantOrder()) {
    std::printf("%-8s %16.3f %16.3f %16.3f\n", name, drops[name].mean(), ic[name].mean(),
                cost[name].mean());
  }
}

}  // namespace

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 12);
  const uint64_t seed = flags.GetUint64("seed", 40000);
  auto options = laar::bench::HarnessFromFlags(flags);
  options.run_host_crash = true;  // Fig. 11 bottom needs it
  laar::bench::CorpusObservability observability(flags, &options);
  const int jobs = laar::bench::JobsFromFlags(flags);
  flags.Finish();

  const auto records = laar::bench::RunExperimentCorpus(options, num_apps, seed, jobs);
  PrintFig9(records);
  PrintFig10(records);
  PrintFig11(records);
  PrintFig12(records);
  return observability.Finish(records);
}
