#include "check/soak.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "telemetry/json.h"
#include "telemetry/json_parse.h"

namespace presto::check {
namespace {

std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// 64-bit values cross the JSON layer as hex strings: the parser stores
/// numbers as double, which cannot hold a full 64-bit digest.
std::string hex64(std::uint64_t v) {
  return strf("0x%016" PRIx64, v);
}

bool parse_hex64(const std::string& s, std::uint64_t* out) {
  if (s.rfind("0x", 0) != 0 || s.size() < 3) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str() + 2, &end, 16);
  return end != nullptr && *end == '\0';
}

/// Advances one ScenarioRun through epoch boundaries (the piece shared by
/// the single and the differential soak).
class EpochDriver {
 public:
  EpochDriver(const Scenario& sc, const SoakOptions& opt)
      : sc_(sc), opt_(opt), run_(sc, leak_checker(opt)) {}

  /// Runs to the given 1-based epoch's boundary. Returns false once the
  /// run cannot advance further (cap reached or queue drained).
  bool advance(std::uint32_t epoch) {
    if (done_) return false;
    if (opt_.epoch_length > 0) {
      sim::Time target = static_cast<sim::Time>(epoch) * opt_.epoch_length;
      if (target >= sc_.cap) {
        target = sc_.cap;
        done_ = true;
      }
      run_.sim().run_until(target);
    } else {
      const std::uint64_t target =
          static_cast<std::uint64_t>(epoch) * opt_.epoch_events;
      run_.sim().run_until_executed(target, sc_.cap);
      if (run_.sim().executed() < target) {
        // Out of events below the cap: either drained, or the next event
        // sits past the cap — both mean the scenario is over. Advance the
        // clock to the cap so the final record is stamped consistently.
        run_.sim().run_until(sc_.cap);
        done_ = true;
      }
    }
    if (run_.sim().pending() == 0) done_ = true;
    return true;
  }

  EpochRecord record(std::uint32_t epoch, bool audit) {
    if (audit) run_.checker().audit_epoch(run_.sim().now(), opt_.leak_age);
    EpochRecord r;
    r.epoch = epoch;
    r.sim_time = run_.sim().now();
    r.executed = run_.sim().executed();
    r.digest = run_.state_digest();
    r.delivered_bytes = run_.app_delivered_bytes();
    r.violations = run_.checker().total_violations();
    r.audited = audit;
    return r;
  }

  bool done() const { return done_; }
  ScenarioRun& run() { return run_; }

 private:
  static CheckerOptions leak_checker(const SoakOptions& opt) {
    CheckerOptions c = opt.checker;
    c.leak = opt.leak_age > 0;
    return c;
  }

  Scenario sc_;
  SoakOptions opt_;
  ScenarioRun run_;
  bool done_ = false;
};

bool audit_at(const SoakOptions& opt, std::uint32_t epoch, bool last) {
  if (opt.audit_every == 0) return last;
  return last || epoch % opt.audit_every == 0;
}

}  // namespace

SoakResult run_soak(const Scenario& sc, const SoakOptions& opt) {
  SoakResult res;
  EpochDriver drv(sc, opt);
  for (std::uint32_t epoch = 1;; ++epoch) {
    if (!drv.advance(epoch)) break;
    const bool last =
        drv.done() || (opt.max_epochs != 0 && epoch >= opt.max_epochs);
    const EpochRecord rec = drv.record(epoch, audit_at(opt, epoch, last));
    res.epochs.push_back(rec);
    if (res.first_bad_epoch == 0 && rec.violations > 0) {
      res.first_bad_epoch = epoch;
    }
    if (opt.on_epoch && !opt.on_epoch(rec)) {
      res.aborted = true;
      res.outcome = drv.run().outcome();
      return res;
    }
    if (last) break;
  }
  if (drv.done()) {
    // The scenario genuinely ended: run the full end-of-run audit,
    // balance sheets and all.
    res.outcome = drv.run().finish();
    res.completed = true;
    if (res.first_bad_epoch == 0 && !res.outcome.ok && !res.epochs.empty()) {
      res.first_bad_epoch = res.epochs.back().epoch;
    }
  } else {
    // Stopped at max_epochs with events still queued — a probe, not a
    // failure; collect what the oracles said without liveness checks.
    res.outcome = drv.run().outcome();
  }
  return res;
}

DiffResult run_differential_soak(const Scenario& sc, const SoakOptions& opt,
                                 const DiffOptions& dopt) {
  DiffResult res;
  if (dopt.all_schemes) {
    res.schemes_run = lb::SchemeRegistry::instance().differential_schemes();
  } else {
    res.schemes_run = dopt.schemes;
  }
  if (res.schemes_run.empty()) {
    res.schemes_run = {harness::Scheme::kPresto, harness::Scheme::kEcmp,
                       harness::Scheme::kFlowlet};
  }

  SoakOptions sopt = opt;
  if (sopt.epoch_length <= 0) sopt.epoch_length = 50 * sim::kMillisecond;

  std::vector<std::unique_ptr<EpochDriver>> drivers;
  for (harness::Scheme s : res.schemes_run) {
    Scenario variant = sc;
    variant.scheme = s;
    drivers.push_back(std::make_unique<EpochDriver>(variant, sopt));
  }
  res.per_scheme.resize(drivers.size());

  for (std::uint32_t epoch = 1;; ++epoch) {
    bool any_advanced = false;
    bool all_done = true;
    for (std::size_t i = 0; i < drivers.size(); ++i) {
      if (drivers[i]->advance(epoch)) any_advanced = true;
      if (!drivers[i]->done()) all_done = false;
    }
    if (!any_advanced) break;
    const bool last =
        all_done || (sopt.max_epochs != 0 && epoch >= sopt.max_epochs);
    const bool audit = audit_at(sopt, epoch, last);

    std::uint64_t lo = UINT64_MAX, hi = 0;
    std::size_t lo_scheme = 0;
    for (std::size_t i = 0; i < drivers.size(); ++i) {
      const EpochRecord rec = drivers[i]->record(epoch, audit);
      res.per_scheme[i].epochs.push_back(rec);
      if (res.per_scheme[i].first_bad_epoch == 0 && rec.violations > 0) {
        res.per_scheme[i].first_bad_epoch = epoch;
      }
      if (rec.delivered_bytes < lo) {
        lo = rec.delivered_bytes;
        lo_scheme = i;
      }
      if (rec.delivered_bytes > hi) hi = rec.delivered_bytes;
    }

    // Cross-scheme oracle: every scheme must deliver the same application
    // bytes eventually; mid-run, one scheme falling pathologically behind
    // the best is flagged against the laggard.
    const std::uint64_t gap = hi - lo;
    const std::uint64_t allowed = std::max(
        dopt.min_gap_bytes,
        static_cast<std::uint64_t>(dopt.tolerance * static_cast<double>(hi)));
    if (gap > allowed) {
      if (res.disagreements.size() < DiffResult::kMaxDisagreements) {
        res.disagreements.push_back(Disagreement{
            epoch, scheme_spec_name(res.schemes_run[lo_scheme]), lo, hi});
      }
      if (res.divergence_epoch == 0) {
        res.divergence_epoch = epoch;
        drivers[lo_scheme]->run().checker().note(
            OracleKind::kDifferential,
            strf("epoch %u: scheme %s delivered %" PRIu64
                 " app bytes vs %" PRIu64 " for the best scheme "
                 "(gap %" PRIu64 " > allowed %" PRIu64 ")",
                 epoch, scheme_spec_name(res.schemes_run[lo_scheme]), lo, hi,
                 gap, allowed));
      }
    }
    if (last) break;
  }

  bool all_completed = true;
  for (std::size_t i = 0; i < drivers.size(); ++i) {
    SoakResult& sr = res.per_scheme[i];
    if (drivers[i]->done()) {
      sr.outcome = drivers[i]->run().finish();
      sr.completed = true;
    } else {
      sr.outcome = drivers[i]->run().outcome();
      all_completed = false;
    }
  }

  // At full quiesce every scheme has delivered the entire application
  // stream: delivered bytes must agree exactly.
  if (all_completed) {
    bool all_drained = true;
    for (const SoakResult& sr : res.per_scheme) {
      all_drained = all_drained && sr.outcome.drained;
    }
    if (all_drained && !res.per_scheme.empty()) {
      const std::uint64_t expect =
          res.per_scheme[0].epochs.empty()
              ? 0
              : res.per_scheme[0].epochs.back().delivered_bytes;
      for (std::size_t i = 1; i < res.per_scheme.size(); ++i) {
        const std::uint64_t got = res.per_scheme[i].epochs.empty()
                                      ? 0
                                      : res.per_scheme[i].epochs.back()
                                            .delivered_bytes;
        if (got != expect) {
          const std::uint32_t at = res.per_scheme[i].epochs.empty()
                                       ? 1
                                       : res.per_scheme[i].epochs.back().epoch;
          if (res.divergence_epoch == 0) res.divergence_epoch = at;
          if (res.disagreements.size() < DiffResult::kMaxDisagreements) {
            res.disagreements.push_back(Disagreement{
                at, scheme_spec_name(res.schemes_run[i]), got, expect});
          }
          res.report += strf(
              "[differential] at quiesce %s delivered %" PRIu64
              " app bytes but %s delivered %" PRIu64 "\n",
              scheme_spec_name(res.schemes_run[i]), got,
              scheme_spec_name(res.schemes_run[0]), expect);
        }
      }
    }
  }

  for (std::size_t i = 0; i < res.per_scheme.size(); ++i) {
    const RunOutcome& o = res.per_scheme[i].outcome;
    if (!o.ok) {
      res.ok = false;
      res.report += strf("--- scheme %s ---\n%s",
                         scheme_spec_name(res.schemes_run[i]), o.report.c_str());
    }
  }
  if (res.divergence_epoch != 0) res.ok = false;
  return res;
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

bool SoakManifest::save(const std::string& path, std::string* err) const {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("presto.soak");
  w.key("scenario");
  w.value(scenario);
  w.key("epoch_us");
  w.value(static_cast<std::int64_t>(epoch_length / sim::kMicrosecond));
  w.key("epoch_events");
  w.value(epoch_events);
  w.key("audit_every");
  w.value(static_cast<std::uint64_t>(audit_every));
  w.key("leak_age_us");
  w.value(static_cast<std::int64_t>(leak_age / sim::kMicrosecond));
  w.key("schemes");
  w.begin_array();
  for (const std::string& scheme : schemes) w.value(scheme);
  w.end_array();
  w.key("status");
  w.value(status);
  w.key("first_bad_epoch");
  w.value(static_cast<std::uint64_t>(first_bad_epoch));
  w.key("report");
  w.value(report);
  w.key("disagreements");
  w.begin_array();
  for (const Disagreement& d : disagreements) {
    w.begin_object();
    w.key("epoch");
    w.value(static_cast<std::uint64_t>(d.epoch));
    w.key("scheme");
    w.value(d.scheme);
    w.key("delivered");
    w.value(d.delivered);
    w.key("best");
    w.value(d.best);
    w.end_object();
  }
  w.end_array();
  w.key("epochs");
  w.begin_array();
  for (const EpochRecord& e : epochs) {
    w.begin_object();
    w.key("epoch");
    w.value(static_cast<std::uint64_t>(e.epoch));
    w.key("sim_us");
    w.value(static_cast<std::int64_t>(e.sim_time / sim::kMicrosecond));
    w.key("executed");
    w.value(e.executed);
    w.key("digest");
    w.value(hex64(e.digest));
    w.key("delivered");
    w.value(e.delivered_bytes);
    w.key("violations");
    w.value(e.violations);
    w.key("audited");
    w.value(e.audited);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  // Atomic rewrite: a crash mid-save leaves the previous manifest intact.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) {
      if (err != nullptr) *err = "cannot open " + tmp;
      return false;
    }
    f << w.str() << '\n';
    if (!f.good()) {
      if (err != nullptr) *err = "write failed: " + tmp;
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (err != nullptr) *err = "rename failed: " + tmp + " -> " + path;
    return false;
  }
  return true;
}

bool SoakManifest::load(const std::string& path, SoakManifest* out,
                        std::string* err) {
  telemetry::JsonValue root;
  std::string lerr;
  if (!telemetry::load_json_file(path, root, lerr)) {
    if (err != nullptr) *err = lerr;
    return false;
  }
  if (root.str_or("schema", "") != "presto.soak") {
    if (err != nullptr) *err = path + ": not a presto.soak manifest";
    return false;
  }
  SoakManifest m;
  m.scenario = root.str_or("scenario", "");
  m.epoch_length = static_cast<sim::Time>(root.num_or("epoch_us", 0)) *
                   sim::kMicrosecond;
  m.epoch_events = static_cast<std::uint64_t>(root.num_or("epoch_events", 0));
  m.audit_every = static_cast<std::uint32_t>(root.num_or("audit_every", 1));
  m.leak_age = static_cast<sim::Time>(root.num_or("leak_age_us", 0)) *
               sim::kMicrosecond;
  if (root.get("schemes").kind() == telemetry::JsonValue::Kind::kArray) {
    for (const auto& s : root.get("schemes").as_array()) {
      m.schemes.push_back(s.as_string());
    }
  }
  m.status = root.str_or("status", "running");
  m.first_bad_epoch =
      static_cast<std::uint32_t>(root.num_or("first_bad_epoch", 0));
  m.report = root.str_or("report", "");
  if (root.get("disagreements").kind() ==
      telemetry::JsonValue::Kind::kArray) {
    for (const auto& d : root.get("disagreements").as_array()) {
      Disagreement rec;
      rec.epoch = static_cast<std::uint32_t>(d.num_or("epoch", 0));
      rec.scheme = d.str_or("scheme", "");
      rec.delivered = static_cast<std::uint64_t>(d.num_or("delivered", 0));
      rec.best = static_cast<std::uint64_t>(d.num_or("best", 0));
      m.disagreements.push_back(rec);
    }
  }
  if (root.get("epochs").kind() == telemetry::JsonValue::Kind::kArray) {
    for (const auto& e : root.get("epochs").as_array()) {
      EpochRecord rec;
      rec.epoch = static_cast<std::uint32_t>(e.num_or("epoch", 0));
      rec.sim_time = static_cast<sim::Time>(e.num_or("sim_us", 0)) *
                     sim::kMicrosecond;
      rec.executed = static_cast<std::uint64_t>(e.num_or("executed", 0));
      if (!parse_hex64(e.str_or("digest", ""), &rec.digest)) {
        if (err != nullptr) {
          *err = strf("%s: epoch %u has a malformed digest", path.c_str(),
                      rec.epoch);
        }
        return false;
      }
      rec.delivered_bytes =
          static_cast<std::uint64_t>(e.num_or("delivered", 0));
      rec.violations = static_cast<std::uint64_t>(e.num_or("violations", 0));
      rec.audited = e.get("audited").as_bool();
      m.epochs.push_back(rec);
    }
  }
  *out = m;
  return true;
}

SoakOptions SoakManifest::options() const {
  SoakOptions opt;
  opt.epoch_length = epoch_length;
  opt.epoch_events = epoch_events;
  opt.audit_every = audit_every;
  opt.leak_age = leak_age;
  return opt;
}

ResumeResult resume_soak(const SoakManifest& manifest, SoakOptions opt) {
  ResumeResult res;
  Scenario sc;
  std::string perr;
  if (!Scenario::parse(manifest.scenario, &sc, &perr)) {
    res.digests_match = false;
    res.mismatch = "manifest scenario does not parse: " + perr;
    return res;
  }

  // Replay from scratch (the restore mechanism *is* deterministic replay):
  // every epoch the manifest recorded must reproduce byte-identical state
  // at the same executed-event watermark.
  const std::vector<EpochRecord> recorded = manifest.epochs;
  const std::function<bool(const EpochRecord&)> user_hook = opt.on_epoch;
  opt.on_epoch = [&res, &recorded, &user_hook](const EpochRecord& rec) {
    const std::size_t i = rec.epoch - 1;
    if (res.digests_match && i < recorded.size()) {
      const EpochRecord& want = recorded[i];
      if (want.epoch == rec.epoch &&
          (want.executed != rec.executed || want.digest != rec.digest)) {
        res.digests_match = false;
        res.mismatch = strf(
            "epoch %u: manifest recorded executed=%" PRIu64
            " digest=%s but the replay produced executed=%" PRIu64
            " digest=%s",
            rec.epoch, want.executed, hex64(want.digest).c_str(),
            rec.executed, hex64(rec.digest).c_str());
      }
    }
    return user_hook ? user_hook(rec) : true;
  };
  res.soak = run_soak(sc, opt);
  return res;
}

}  // namespace presto::check
