// Flight recorder, part 3: on-disk formats.
//
// Two formats:
//  - `export_perfetto_json` emits the Chrome/Perfetto legacy trace-event
//    JSON (load at https://ui.perfetto.dev): every sampled TimeSeries
//    becomes a counter track ("C" events) and every flowcell span becomes a
//    nestable async slice ("b"/"e") whose per-hop annotations are instant
//    events ("n") carrying {kind, node, port, seq, bytes} args. Timestamps
//    are virtual microseconds. `tools/report spans` reads it back.
//  - `export_timeseries_csv` emits flat CSV for plotting scripts (fig19
//    recovery curves).
//
// All output is deterministic: series sorted by name, spans/events in id
// order, doubles via JsonWriter's %.17g.
#pragma once

#include <string>

#include "telemetry/span.h"
#include "telemetry/timeseries.h"

namespace presto::telemetry {

/// Either argument may be null; an empty trace is still a valid document.
std::string export_perfetto_json(const TimeSeriesSampler* sampler,
                                 const SpanTracer* spans);

/// Header `series,t_ns,value`; one row per retained point, series sorted by
/// name, points oldest first.
std::string export_timeseries_csv(const TimeSeriesSampler& sampler);

}  // namespace presto::telemetry
