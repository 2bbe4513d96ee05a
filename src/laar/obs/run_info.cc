#include "laar/obs/run_info.h"

#include <algorithm>
#include <set>

#include "laar/common/strings.h"

#ifndef LAAR_GIT_DESCRIBE
#define LAAR_GIT_DESCRIBE "unknown"
#endif

namespace laar::obs {

namespace {

/// True for flags that do not alter the simulated workload: output paths,
/// the parallelism knobs, and trace-ring shape (the ring only bounds what
/// the recorder keeps). "--metrics-out=x" and "--trace-out" both match;
/// so does "--jobs" with or without a value. "--shards" qualifies because
/// the sharded engine is byte-identical across shard counts (DESIGN.md §10)
/// — unlike "--link-latency" and the topology latency factors, which change
/// delivery semantics and therefore stay in the stamp.
bool IsNonWorkloadFlag(const std::string& arg) {
  if (arg.rfind("--", 0) != 0) return false;
  const size_t eq = arg.find('=');
  const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
  return name == "jobs" || name == "shards" || name == "trace-categories" ||
         name == "trace-capacity" || EndsWith(name, "-out");
}

}  // namespace

RunInfo RunInfo::Capture(const char* tool, uint64_t seed, int argc,
                         const char* const* argv) {
  RunInfo info;
  info.tool = tool;
  info.version = LAAR_GIT_DESCRIBE;
  info.compiler = __VERSION__;
  info.seed = seed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!IsNonWorkloadFlag(arg)) info.args.push_back(arg);
  }
  return info;
}

json::Value RunInfo::ToJson() const {
  json::Value doc = json::Value::MakeObject();
  doc.Set("tool", json::Value::String(tool));
  doc.Set("version", json::Value::String(version));
  doc.Set("compiler", json::Value::String(compiler));
  doc.Set("seed", json::Value::Int(static_cast<int64_t>(seed)));
  json::Value arg_list = json::Value::MakeArray();
  for (const std::string& arg : args) arg_list.Append(json::Value::String(arg));
  doc.Set("args", std::move(arg_list));
  return doc;
}

Result<RunInfo> RunInfo::FromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("run_info must be a JSON object");
  }
  RunInfo info;
  LAAR_ASSIGN_OR_RETURN(info.tool,
                        value.GetOr("tool", json::Value::String("")).AsString());
  LAAR_ASSIGN_OR_RETURN(info.version,
                        value.GetOr("version", json::Value::String("")).AsString());
  LAAR_ASSIGN_OR_RETURN(info.compiler,
                        value.GetOr("compiler", json::Value::String("")).AsString());
  LAAR_ASSIGN_OR_RETURN(const int64_t seed,
                        value.GetOr("seed", json::Value::Int(0)).AsInt());
  info.seed = static_cast<uint64_t>(seed);
  const json::Value args = value.GetOr("args", json::Value::MakeArray());
  if (!args.is_array()) return Status::InvalidArgument("run_info 'args' must be an array");
  for (const json::Value& arg : args.array()) {
    LAAR_ASSIGN_OR_RETURN(std::string text, arg.AsString());
    info.args.push_back(std::move(text));
  }
  return info;
}

std::vector<std::string> WorkloadMismatches(const RunInfo& a, const RunInfo& b) {
  std::vector<std::string> out;
  if (a.tool != b.tool) {
    out.push_back(StrFormat("tool: %s vs %s", a.tool.c_str(), b.tool.c_str()));
  }
  if (a.version != b.version) {
    out.push_back(
        StrFormat("version: %s vs %s", a.version.c_str(), b.version.c_str()));
  }
  if (a.seed != b.seed) {
    out.push_back(StrFormat("seed: %llu vs %llu",
                            static_cast<unsigned long long>(a.seed),
                            static_cast<unsigned long long>(b.seed)));
  }
  const std::set<std::string> in_a(a.args.begin(), a.args.end());
  const std::set<std::string> in_b(b.args.begin(), b.args.end());
  for (const std::string& arg : in_a) {
    if (in_b.count(arg) == 0) out.push_back("only in A: " + arg);
  }
  for (const std::string& arg : in_b) {
    if (in_a.count(arg) == 0) out.push_back("only in B: " + arg);
  }
  return out;
}

}  // namespace laar::obs
