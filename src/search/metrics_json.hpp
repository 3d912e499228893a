// The `--metrics-json` document: one JSON object holding a search's full
// SearchMetrics, the process-wide JIT lowering census and the run verdict.
// CI scripts grep its keys, so the key set and value types are a contract
// (pinned by a test).
#pragma once

#include <string>

#include "search/search.hpp"

namespace fpmix::search {

/// Renders `res` as the metrics JSON document (trailing newline included).
std::string metrics_json(const SearchResult& res);

}  // namespace fpmix::search
