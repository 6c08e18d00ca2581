#pragma once

#include "common.hpp"

namespace perfbench {

RunResult run_serve(const RunConfig& cfg);
RunResult run_train(const RunConfig& cfg);
RunResult run_scale(const RunConfig& cfg);
RunResult run_stream(const RunConfig& cfg);

}  // namespace perfbench
