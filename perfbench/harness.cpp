// Benchmark harness: composes the simulator's public calls and times
// each one from the outside.
//
// One invocation does one unit of work in a fresh process and prints
// one JSON line (the last line of stdout) for perfbench/run.py:
//
//   survey          CityPlan -> Simulation -> WardriveCampaign::run, the
//                   pipeline `pw_run wardriving` runs, with its canonical
//                   document and digest
//   campaign-setup  the set-up `pw_run --campaign` pays before its first
//                   dispatch: manifest parse, per-job flag resolution,
//                   journal load
//   units           the jobs of a campaign manifest, shard K of P
//                   (--shard=K --of=P), run in-process one after another
//                   through run_experiment; with --trace each job
//                   collects its obs/ metrics block (no timeline) and the
//                   shard reports the merged block
//   fingerprint     compiler, build type and PW_METRICS of this build
//
// Flags: --seed=N, survey params by their experiment names (--scale,
// --fading_rho, ...), --city-seed=N (survey: seed of the city plan when
// it differs from the simulation's --seed), --setup-only (survey: stop
// after set-up), --trace (survey: collect obs/ counters over the
// composed calls; when the city and the simulation share one seed, also
// run `run_experiment("wardriving")` with the same params and report
// whether its results equal the composed ones).
//
// Every timestamp is std::chrono::steady_clock (CLOCK_MONOTONIC), the
// clock run.py uses, so harness spans line up with run.py's spans in
// one trace.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/json_parse.h"
#include "core/wardrive.h"
#include "obs/metrics.h"
#include "runtime/campaign/journal.h"
#include "runtime/campaign/manifest.h"
#include "runtime/city_reduce.h"
#include "runtime/experiments/all.h"
#include "runtime/registry.h"
#include "runtime/result_sink.h"
#include "runtime/run_context.h"
#include "runtime/runner.h"
#include "scenario/city.h"
#include "sim/network.h"

namespace {

using politewifi::common::Flag;
using politewifi::common::Json;
namespace core = politewifi::core;
namespace obs = politewifi::obs;
namespace rt = politewifi::runtime;
namespace scenario = politewifi::scenario;
namespace sim = politewifi::sim;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept in memory and printed with the result: name, start, end
/// and the index of the enclosing span (-1 for a root).
class Spans {
 public:
  int open(const char* name, int parent = -1) {
    spans_.push_back({name, now_ns(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  std::int64_t close(int index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    return s.end_ns - s.start_ns;
  }
  Json to_json() const {
    Json out = Json::array();
    for (const Span& s : spans_) {
      Json one = Json::object();
      one["name"] = s.name;
      one["start_ns"] = s.start_ns;
      one["end_ns"] = s.end_ns;
      one["parent"] = s.parent;
      out.push_back(std::move(one));
    }
    return out;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  std::vector<Span> spans_;
};

struct Args {
  politewifi::common::ParsedArgs parsed;

  std::string text(const char* name, const char* fallback = "") const {
    const Flag* f = parsed.find_flag(name);
    return f != nullptr && f->value.has_value() ? *f->value : fallback;
  }
  double number(const char* name, double fallback) const {
    double v = fallback;
    const std::string t = text(name);
    if (!t.empty() && !politewifi::common::parse_double(t, &v)) {
      std::fprintf(stderr, "harness: --%s: not a number: %s\n", name,
                   t.c_str());
      std::exit(2);
    }
    return v;
  }
  std::uint64_t seed(const char* name = "seed",
                     const char* fallback = "1") const {
    std::int64_t v = 0;
    if (!politewifi::common::parse_int64(text(name, fallback), &v) || v < 0) {
      std::fprintf(stderr, "harness: --%s needs a non-negative integer\n",
                   name);
      std::exit(2);
    }
    return static_cast<std::uint64_t>(v);
  }
};

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void emit(const Json& out) {
  std::fflush(stdout);
  std::printf("\n%s\n", out.dump_compact().c_str());
}

// The wardriving experiment's params, spelled the way its spec names
// them, so the composed document carries the same `params` block.
struct SurveyParams {
  double scale;
  double fading_rho;
  double fading_sigma_db;
  double fading_coherence_us;
};

int run_survey(const Args& args) {
  const std::uint64_t seed = args.seed();
  const std::uint64_t city_seed =
      args.seed("city-seed", args.text("seed", "1").c_str());
  const SurveyParams p{args.number("scale", 0.02),
                       args.number("fading_rho", 0.0),
                       args.number("fading_sigma_db", 2.0),
                       args.number("fading_coherence_us", 1000.0)};
  const bool setup_only = args.parsed.has_flag("setup-only");
  const bool trace = args.parsed.has_flag("trace");

  Spans spans;
  Json out = Json::object();
  if (trace) {
    obs::Registry::reset();
    obs::Registry::set_enabled(true);
  }
  const int root = spans.open("survey");
  const int setup = spans.open("setup", root);

  int s = spans.open("scenario.plan", setup);
  scenario::CityConfig city_cfg;
  city_cfg.scale = p.scale;
  city_cfg.seed = city_seed;
  const scenario::CityPlan plan(
      scenario::CityPlan::grid_route(p.scale >= 0.5 ? 6 : 2, 500), city_cfg);
  out["plan_ns"] = spans.close(s);

  s = spans.open("sim.build", setup);
  sim::SimulationConfig sim_cfg;
  sim_cfg.medium.fading_rho = p.fading_rho;
  sim_cfg.medium.fading_sigma_db = p.fading_sigma_db;
  sim_cfg.medium.fading_coherence_us = p.fading_coherence_us;
  sim_cfg.seed = seed;
  auto simulation = std::make_unique<sim::Simulation>(std::move(sim_cfg));
  out["sim_ns"] = spans.close(s);

  s = spans.open("core.build", setup);
  core::WardriveCampaign campaign(*simulation, plan);
  out["build_ns"] = spans.close(s);
  out["setup_ns"] = spans.close(setup);
  out["devices"] = static_cast<std::int64_t>(plan.devices().size());

  if (!setup_only) {
    s = spans.open("core.drive", root);
    const core::WardriveReport report = campaign.run();
    out["drive_ns"] = spans.close(s);
    out["events"] = static_cast<std::int64_t>(
        simulation->scheduler().events_executed());

    s = spans.open("serialize", root);
    rt::ResultSink sink;
    sink.set_meta("experiment", "wardriving");
    sink.set_meta("seed", static_cast<std::int64_t>(seed));
    sink.set_meta("smoke", false);
    Json params = Json::object();
    params["scale"] = p.scale;
    params["fading_rho"] = p.fading_rho;
    params["fading_sigma_db"] = p.fading_sigma_db;
    params["fading_coherence_us"] = p.fading_coherence_us;
    sink.set_meta("params", std::move(params));
    sink.results() = report.to_json();
    const std::string text = sink.canonical_text();
    out["digest"] = rt::campaign::campaign_digest(text);
    out["serialize_ns"] = spans.close(s);
    out["wall_ns"] = spans.close(root);
    out["document"] = sink.document();
    if (trace) {
      obs::Registry::set_enabled(false);
      out["counters"] = obs::Registry::to_json();
    }
    if (trace && city_seed == seed) {
      // The reference: the registered experiment with the same params
      // must produce exactly the results the composed calls did. It
      // seeds city and simulation alike, so only such a survey has one.
      std::vector<Flag> flags = {
          {"seed", std::to_string(seed)},
          {"scale", Json(p.scale).dump()},
          {"fading_rho", Json(p.fading_rho).dump()},
          {"fading_sigma_db", Json(p.fading_sigma_db).dump()},
          {"fading_coherence_us", Json(p.fading_coherence_us).dump()}};
      rt::register_builtin_experiments();
      s = spans.open("runtime.run_experiment");
      const auto ref = rt::run_experiment("wardriving", flags, false);
      spans.close(s);
      std::string error;
      const auto ref_doc = politewifi::common::parse_json(ref.json, &error);
      const Json* ref_results =
          ref_doc.has_value() ? ref_doc->find("results") : nullptr;
      out["reference_exit"] = ref.exit_code;
      out["reference_equal"] =
          ref_results != nullptr &&
          ref_results->dump() == sink.results().dump();
    }
  } else {
    spans.close(root);
  }
  out["spans"] = spans.to_json();
  emit(out);
  return 0;
}

int run_campaign_setup(const Args& args) {
  namespace campaign = rt::campaign;
  rt::register_builtin_experiments();
  const std::string manifest_path = args.text("manifest");
  const std::string dir = args.text("dir");
  if (manifest_path.empty() || dir.empty()) {
    std::fprintf(stderr, "harness: campaign-setup needs --manifest and --dir\n");
    return 2;
  }

  // The steps run_campaign_driver takes before its first dispatch.
  Spans spans;
  const int setup = spans.open("setup");
  int s = spans.open("campaign.manifest", setup);
  std::string error;
  const auto manifest =
      campaign::parse_campaign_manifest_text(read_text(manifest_path), &error);
  if (!manifest.has_value()) {
    std::fprintf(stderr, "harness: manifest: %s\n", error.c_str());
    return 1;
  }
  const std::string digest =
      campaign::campaign_digest(manifest->to_json().dump() + "\n");
  spans.close(s);
  s = spans.open("runtime.resolve_run", setup);
  for (const campaign::CampaignJob& job : manifest->jobs) {
    const auto experiment =
        rt::ExperimentRegistry::instance().create(job.experiment);
    std::vector<Flag> flags = {{"seed", std::to_string(job.seed)}};
    for (const auto& [key, value] : job.params) flags.push_back({key, value});
    rt::ResolvedRun resolved;
    if (experiment == nullptr ||
        !rt::resolve_run(experiment->spec(), flags, job.smoke, &resolved,
                         &error)) {
      std::fprintf(stderr, "harness: job %s: %s\n", job.id.c_str(),
                   error.c_str());
      return 1;
    }
  }
  spans.close(s);
  s = spans.open("campaign.journal", setup);
  std::filesystem::create_directories(dir + "/logs");
  std::filesystem::create_directories(dir + "/scratch");
  campaign::CampaignJournal journal;
  if (!campaign::load_campaign_journal(dir, *manifest, digest, &journal,
                                       &error)) {
    std::fprintf(stderr, "harness: journal: %s\n", error.c_str());
    return 1;
  }
  spans.close(s);
  Json out = Json::object();
  out["setup_ns"] = spans.close(setup);
  out["jobs"] = static_cast<std::int64_t>(manifest->jobs.size());
  out["spans"] = spans.to_json();
  emit(out);
  return 0;
}

int run_units(const Args& args) {
  namespace campaign = rt::campaign;
  rt::register_builtin_experiments();
  std::string error;
  const auto manifest = campaign::parse_campaign_manifest_text(
      read_text(args.text("manifest")), &error);
  if (!manifest.has_value()) {
    std::fprintf(stderr, "harness: manifest: %s\n", error.c_str());
    return 1;
  }
  const auto shard = static_cast<std::size_t>(args.number("shard", 0));
  const auto of = static_cast<std::size_t>(args.number("of", 1));
  rt::RunOptions options;
  options.metrics = args.parsed.has_flag("trace");

  Spans spans;
  std::vector<Json> blocks;
  std::int64_t units = 0;
  std::int64_t failed = 0;
  const int root = spans.open("units");
  for (std::size_t i = shard; i < manifest->jobs.size(); i += of) {
    const campaign::CampaignJob& job = manifest->jobs[i];
    std::vector<Flag> flags = {{"seed", std::to_string(job.seed)}};
    for (const auto& [key, value] : job.params) flags.push_back({key, value});
    const int s = spans.open("runtime.run_experiment", root);
    const auto result =
        rt::run_experiment(job.experiment, flags, job.smoke, options);
    spans.close(s);
    ++units;
    if (result.exit_code != 0) ++failed;
    if (options.metrics) {
      auto block = politewifi::common::parse_json(result.metrics_json, &error);
      if (!block.has_value()) {
        std::fprintf(stderr, "harness: job %s metrics: %s\n",
                     job.id.c_str(), error.c_str());
        return 1;
      }
      blocks.push_back(std::move(*block));
    }
  }
  Json out = Json::object();
  out["wall_ns"] = spans.close(root);
  out["units"] = units;
  out["failed"] = failed;
  if (options.metrics && !blocks.empty()) {
    std::vector<const Json*> pointers;
    for (const Json& b : blocks) pointers.push_back(&b);
    auto merged = rt::merge_metrics_blocks(pointers, &error);
    if (!merged.has_value()) {
      std::fprintf(stderr, "harness: merge: %s\n", error.c_str());
      return 1;
    }
    out["counters"] = std::move(*merged);
  }
  out["spans"] = spans.to_json();
  emit(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  auto parsed = politewifi::common::parse_args(argc, argv, &error);
  if (!parsed.has_value() || parsed->positionals.size() != 1) {
    std::fprintf(stderr,
                 "usage: pw_bench_harness survey|campaign-setup|units|"
                 "fingerprint [--flags]\n%s\n",
                 error.c_str());
    return 2;
  }
  const Args args{std::move(*parsed)};
  const std::string& mode = args.parsed.positionals.front();
  if (mode == "fingerprint") {
    Json out = Json::object();
    out["compiler"] = PW_BENCH_COMPILER;
    out["build_type"] = PW_BENCH_BUILD_TYPE;
    out["pw_metrics"] = PW_OBS_ON == 1;
    emit(out);
    return 0;
  }
  if (mode == "survey") return run_survey(args);
  if (mode == "campaign-setup") return run_campaign_setup(args);
  if (mode == "units") return run_units(args);
  std::fprintf(stderr, "harness: unknown mode '%s'\n", mode.c_str());
  return 2;
}
