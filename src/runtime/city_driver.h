// Multi-process city sweep driver (`pw_run --city`, `--city-reduce`).
//
// One child `pw_run city --district=K` process per district, run
// through a bounded process pool, each writing its canonical document
// to a scratch directory; the parent parses the child documents back
// (common/json_parse.h) and reduces them (runtime/city_reduce.h) into
// the same bytes an in-process `pw_run city` run would emit. The
// equivalence is the whole contract: CI diffs the two documents.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"

namespace politewifi::runtime {

struct CityDriverOptions {
  /// How the children are invoked (the parent's own argv[0]).
  std::string argv0;
  /// Process-pool bound; districts beyond it queue.
  int processes = 4;
  bool smoke = false;
  /// Experiment flags forwarded verbatim to every child (--seed,
  /// --scale, --districts). --district is the driver's.
  std::vector<common::Flag> forwarded;
  /// --json / --metrics destinations for the reduced document (same
  /// semantics as a plain run; nullopt = not requested).
  std::optional<std::string> json_arg;
  std::optional<std::string> metrics_arg;
};

/// Runs the full multi-process city survey. Returns a pw_run exit
/// code: 0 success, 1 a child or the reduction failed, 2 usage error.
int run_city_driver(const CityDriverOptions& options);

/// Reduces already-written district documents (`district*.json` in
/// `dir`, e.g. from tools/pw_city.py) without spawning anything.
int run_city_reduce(const std::string& dir,
                    const std::optional<std::string>& json_arg,
                    const std::optional<std::string>& metrics_arg);

}  // namespace politewifi::runtime
