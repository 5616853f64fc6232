#include "orchestrator/ledger.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "trace/json.hpp"

namespace sss::orchestrator {

namespace {

const char* kind_name(LedgerEvent::Kind kind) {
  switch (kind) {
    case LedgerEvent::Kind::kLaunch: return "launch";
    case LedgerEvent::Kind::kDone: return "done";
    case LedgerEvent::Kind::kFail: return "fail";
    case LedgerEvent::Kind::kExhausted: return "exhausted";
  }
  return "?";
}

trace::JsonValue plan_to_json(const LedgerPlan& plan) {
  trace::JsonValue shards = trace::JsonValue::array();
  for (const auto& [begin, end] : plan.shards) {
    trace::JsonValue range = trace::JsonValue::array();
    range.push_back(begin);
    range.push_back(end);
    shards.push_back(std::move(range));
  }
  trace::JsonValue json = trace::JsonValue::object();
  json["event"] = "plan";
  json["scenario"] = plan.scenario;
  json["seed"] = trace::JsonValue::from_uint64(plan.seed);
  json["scale"] = plan.scale;
  json["total_cells"] = plan.total_cells;
  json["shards"] = std::move(shards);
  return json;
}

LedgerPlan plan_from_json(const trace::JsonValue& json) {
  LedgerPlan plan;
  plan.scenario = json.at("scenario").as_string();
  plan.seed = json.at("seed").as_uint64();
  plan.scale = json.at("scale").as_double();
  plan.total_cells = static_cast<std::size_t>(json.at("total_cells").as_double());
  for (const trace::JsonValue& range : json.at("shards").as_array()) {
    const auto& pair = range.as_array();
    if (pair.size() != 2) {
      throw std::runtime_error("ledger plan record: shard range is not a pair");
    }
    plan.shards.emplace_back(static_cast<std::size_t>(pair[0].as_double()),
                             static_cast<std::size_t>(pair[1].as_double()));
  }
  return plan;
}

}  // namespace

Ledger::Ledger(const std::string& path, const LedgerPlan& plan_record,
               bool resume_expected)
    : path_(path), plan_(plan_record) {
  const bool exists = std::filesystem::exists(path);
  if (exists && !resume_expected) {
    throw std::invalid_argument("ledger " + path +
                                " already exists; pass --resume to continue it "
                                "or use a fresh --workdir");
  }

  if (exists) {
    // Replay before reopening for append.  Read the whole file; parse line
    // by line.  Only the FINAL line may be torn (the crash happened while
    // appending it) — any earlier unparsable line means real corruption.
    std::FILE* in = std::fopen(path.c_str(), "rb");
    if (in == nullptr) {
      throw std::runtime_error("ledger " + path + ": " + std::strerror(errno));
    }
    std::string text;
    char buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, in)) > 0) {
      text.append(buffer, got);
    }
    std::fclose(in);

    replay_.assign(plan_.shards.size(), ShardReplay{});
    bool saw_plan = false;
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t nl = text.find('\n', pos);
      const bool final_line = nl == std::string::npos;
      const std::string_view line(text.data() + pos,
                                  (final_line ? text.size() : nl) - pos);
      pos = final_line ? text.size() : nl + 1;
      if (line.empty()) continue;

      trace::JsonValue json;
      try {
        json = trace::JsonValue::parse(line);
      } catch (const std::exception&) {
        if (final_line) break;  // torn tail from the crash — drop it
        throw std::runtime_error("ledger " + path +
                                 ": corrupt journal line (not the final line)");
      }
      const std::string& event = json.at("event").as_string();
      if (event == "plan") {
        if (saw_plan) {
          throw std::runtime_error("ledger " + path + ": duplicate plan record");
        }
        saw_plan = true;
        const LedgerPlan recorded = plan_from_json(json);
        if (!(recorded == plan_record)) {
          throw std::invalid_argument(
              "ledger " + path +
              ": journal records a different sweep (scenario/seed/scale/"
              "shard layout mismatch); refusing to resume");
        }
        replay_.assign(plan_.shards.size(), ShardReplay{});
        continue;
      }
      if (!saw_plan) {
        throw std::runtime_error("ledger " + path + ": first record is not a plan");
      }
      const auto shard = static_cast<std::size_t>(json.at("shard").as_double());
      if (shard >= replay_.size()) {
        throw std::runtime_error("ledger " + path + ": shard id out of range");
      }
      ShardReplay& state = replay_[shard];
      if (event == "launch") {
        state.last_attempt =
            std::max(state.last_attempt, static_cast<int>(json.at("attempt").as_double()));
      } else if (event == "done") {
        state.done = true;
      } else if (event == "fail") {
        ++state.failures;
      } else if (event == "exhausted") {
        state.exhausted = true;
      } else {
        throw std::runtime_error("ledger " + path + ": unknown event '" + event + "'");
      }
    }
    if (!saw_plan) {
      throw std::runtime_error("ledger " + path + ": no plan record found");
    }
    resumed_ = true;
  } else {
    replay_.assign(plan_.shards.size(), ShardReplay{});
  }

  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("ledger " + path + ": " + std::strerror(errno));
  }
  if (!exists) {
    const std::string line = plan_to_json(plan_).dump() + "\n";
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fflush(file_) != 0) {
      throw std::runtime_error("ledger " + path + ": write failed");
    }
  }
}

Ledger::~Ledger() {
  if (file_ != nullptr) std::fclose(file_);
}

void Ledger::append(const LedgerEvent& event) {
  trace::JsonValue json = trace::JsonValue::object();
  json["event"] = kind_name(event.kind);
  json["shard"] = event.shard;
  if (event.kind != LedgerEvent::Kind::kExhausted) json["attempt"] = event.attempt;
  if (!event.detail.empty()) json["detail"] = event.detail;
  const std::string line = json.dump() + "\n";
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    throw std::runtime_error("ledger " + path_ + ": append failed");
  }
}

void Ledger::record_launch(std::size_t shard, int attempt) {
  append({LedgerEvent::Kind::kLaunch, shard, attempt, {}});
}

void Ledger::record_done(std::size_t shard, int attempt, const std::string& artifact) {
  append({LedgerEvent::Kind::kDone, shard, attempt, artifact});
}

void Ledger::record_fail(std::size_t shard, int attempt, const std::string& reason) {
  append({LedgerEvent::Kind::kFail, shard, attempt, reason});
}

void Ledger::record_exhausted(std::size_t shard) {
  append({LedgerEvent::Kind::kExhausted, shard, 0, {}});
}

}  // namespace sss::orchestrator
