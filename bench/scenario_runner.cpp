// scenario_runner — list and execute any registered scenario.
//
//   scenario_runner --list [--tag TAG]
//   scenario_runner --run <name> [--threads N] [--scale S] [--seed K]
//                   [--csv-dir DIR]
//   scenario_runner --all [--tag TAG] [...]
//
// `--help` lists every flag (scenario/runner.hpp documents the CLI).
#include "scenario/runner.hpp"

int main(int argc, char** argv) { return sss::scenario::main_from_args(argc, argv); }
