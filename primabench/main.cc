// PRIMA benchmark driver binary. Usage:
//
//   primabench --workload <brep_hot|brep_cold|mmo_local|mmo_wire>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--trace-file <path>] [--db-dir <dir>]
//              [--cursor-assembly-threads <n>] [--buffer-shards <n>]
//
// Prints progress to stderr and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when an
// output check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

bool ParseArgs(int argc, char** argv, primabench::Args* args) {
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      have_trace = true;
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      args->trace = v[0] == '1';
    } else if (flag == "--trace-file") {
      args->trace_file = v;
    } else if (flag == "--db-dir") {
      args->db_dir = v;
    } else if (flag == "--cursor-assembly-threads") {
      args->cursor_assembly_threads = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--buffer-shards") {
      args->buffer_shards = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_trace && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  primabench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: primabench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> [--trace-file <path>] [--db-dir <dir>]"
                 " [--cursor-assembly-threads <n>] [--buffer-shards <n>]\n");
    return 2;
  }
  primabench::Tracer tracer;
  primabench::Outcome outcome;
  if (args.workload == "brep_hot" || args.workload == "brep_cold") {
    outcome = primabench::RunBrep(args, &tracer);
  } else if (args.workload == "mmo_local" || args.workload == "mmo_wire") {
    outcome = primabench::RunMmo(args, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  for (const std::string& e : outcome.errors) {
    std::fprintf(stderr, "%s\n", e.c_str());
  }
  // The figures that do not go on the result line, for a reader of stderr.
  std::string figures;
  for (const auto& [name, value] : outcome.trace_extra) {
    figures += (figures.empty() ? "" : " ") + name + "=" +
               std::to_string(value);
  }
  std::fprintf(stderr, "figures: %s\n", figures.c_str());
  if (args.trace && !args.trace_file.empty() &&
      !tracer.WriteFile(args.trace_file, args, outcome)) {
    std::fprintf(stderr, "cannot write trace file %s\n",
                 args.trace_file.c_str());
    outcome.CheckFailed("trace file");
  }
  if (outcome.attempted == 0) {
    std::fprintf(stderr, "no operation ran\n");
    return 1;
  }
  std::printf("%s\n", outcome.ResultLine().c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
