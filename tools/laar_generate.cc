// laar_generate — emit a synthetic application descriptor (§5.2 generator).
//
// `--help` lists the flags; --out is required.
//
// The descriptor is self-contained JSON consumable by laar_solve and
// laar_simulate. The generated deployment is calibrated so that the
// twofold-replicated application fits under "Low" input and overloads
// under "High" — the regime LAAR is designed for.
//
// --profile selects the option preset: "paper" (the default) is the §5.2
// testbed scale; "web-scale" is 2048 PEs / 8 sources / 256 hosts with a
// rack/zone failure topology and rack-spread placement, the workload the
// sharded-engine scaling benchmarks run (EXPERIMENTS.md). Explicit size
// flags override the chosen profile's values (`--profile=web-scale --help`
// lists that profile's). Shrink the hosts with the PEs: calibration fails
// ("low configuration overloaded") when the replicas are too few to spread
// over the hosts, as with `--profile=web-scale --pes=64` on its 256 hosts;
// `--pes=64 --hosts=16` generates.

#include <cstdio>
#include <string>

#include "laar/appgen/app_generator.h"
#include "laar/common/flags.h"

int main(int argc, char** argv) {
  laar::Flags flags(argc, argv);
  const std::string path = flags.GetString("out", "");
  const std::string profile = flags.GetString("profile", "paper");
  laar::appgen::GeneratorOptions options;
  if (profile == "web-scale") {
    options = laar::appgen::WebScaleProfile();
  } else if (profile != "paper") {
    std::fprintf(stderr, "unknown --profile=%s (want paper or web-scale)\n",
                 profile.c_str());
    return 2;
  }
  options.num_pes = flags.GetInt("pes", options.num_pes);
  options.num_sources = flags.GetInt("sources", options.num_sources);
  options.num_sinks = flags.GetInt("sinks", options.num_sinks);
  options.num_hosts = flags.GetInt("hosts", options.num_hosts);
  options.host_capacity = flags.GetDouble("capacity", options.host_capacity);
  const uint64_t seed = flags.GetUint64("seed", 1);
  flags.Finish();
  if (path.empty()) {
    std::fprintf(stderr, "laar_generate: --out is required (see --help)\n");
    return 2;
  }

  auto app = laar::appgen::GenerateApplication(options, seed);
  if (!app.ok()) {
    std::fprintf(stderr, "generation failed: %s\n", app.status().ToString().c_str());
    return 1;
  }
  const laar::Status status = app->descriptor.SaveToFile(path);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu PEs, %zu sources, %zu sinks; calibrated for %d x %.3g "
              "cycles/s hosts (seed %llu)\n",
              path.c_str(), app->descriptor.graph.num_pes(),
              app->descriptor.graph.Sources().size(),
              app->descriptor.graph.Sinks().size(), options.num_hosts,
              options.host_capacity, static_cast<unsigned long long>(seed));
  return 0;
}
