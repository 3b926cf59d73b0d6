#include "ndp/ndp_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "common/error.h"
#include "io/vnd_format.h"
#include "ndp/bricked_select.h"
#include "obs/trace.h"
#include "obs/windowed.h"

namespace vizndp::ndp {

using msgpack::Array;
using msgpack::Map;
using msgpack::Value;

namespace {

Value SnapshotsToValue(const std::vector<obs::MetricSnapshot>& snapshot) {
  Array out;
  out.reserve(snapshot.size());
  for (const obs::MetricSnapshot& s : snapshot) {
    Map m;
    m.emplace_back(Value("name"), Value(s.name));
    m.emplace_back(Value("kind"),
                   Value(std::string(obs::MetricKindName(s.kind))));
    m.emplace_back(Value("value"), Value(s.value));
    if (s.kind == obs::MetricSnapshot::Kind::kHistogram) {
      m.emplace_back(Value("count"), Value(s.count));
      Array bounds;
      bounds.reserve(s.bounds.size());
      for (const double b : s.bounds) bounds.emplace_back(b);
      m.emplace_back(Value("bounds"), Value(std::move(bounds)));
      Array buckets;
      buckets.reserve(s.buckets.size());
      for (const std::uint64_t b : s.buckets) buckets.emplace_back(b);
      m.emplace_back(Value("buckets"), Value(std::move(buckets)));
      if (s.exemplar_trace_id != 0) {
        m.emplace_back(Value("exemplar_value"), Value(s.exemplar_value));
        m.emplace_back(Value("exemplar_trace"), Value(s.exemplar_trace_id));
      }
      // Sliding-window series carry their span; absent for cumulative
      // ones, and old clients skip the key either way.
      if (s.window_seconds > 0) {
        m.emplace_back(Value("window_s"), Value(s.window_seconds));
      }
    }
    out.emplace_back(std::move(m));
  }
  return Value(std::move(out));
}

// Mid-stream admission: a started stream must never shed — `!busy:`
// tells the client "retry the whole call", and a retry would duplicate
// the chunks already shipped. Wait up to a second for budget to free up
// (other streams release per batch, so turnover is fast); if the node
// stays saturated, fail plain instead.
rpc::MemoryBudget::Reservation ReserveMidStream(rpc::MemoryBudget& budget,
                                                std::uint64_t bytes) {
  try {
    return rpc::MemoryBudget::Reservation(budget, bytes,
                                          std::chrono::seconds(1));
  } catch (const BusyError& e) {
    throw Error(std::string("stream reservation starved mid-flight: ") +
                e.what());
  }
}

}  // namespace

msgpack::Value NdpServer::Select(const SelectRequest& request,
                                 rpc::StreamSink* sink) {
  const std::string& array = request.array;
  const std::vector<std::int64_t>* only_bricks =
      request.bricks.has_value() ? &*request.bricks : nullptr;
  const bool streamed = request.stream.has_value() && sink != nullptr;
  // Span names per reply shape (the layer breakdown reads them): a
  // stream times each batch as one ndp.stream.chunk, encode and emit
  // included; one-shot splits its batch into ndp.read and ndp.pack.
  obs::Span total_span(streamed ? "ndp.select.stream" : "ndp.select");
  if (streamed) metrics_.GetCounter("ndp_stream_requests_total").Increment();
  const io::VndReader reader(gateway_.Open(request.key));
  const io::VndHeader& h = reader.header();
  const io::ArrayMeta* meta = h.Find(array);
  VIZNDP_CHECK_MSG(meta != nullptr, "no array '" + array + "' in VND file");
  const BrickPlan plan =
      PlanBricks(h.dims, *meta, request.isovalues, only_bricks,
                 streamed ? request.stream->resume_after : -1);
  if (only_bricks != nullptr) {
    VIZNDP_CHECK_MSG(
        only_bricks->empty() || only_bricks->back() < plan.bricks_total(),
        "brick restriction id out of range for '" + array + "'");
    metrics_.GetCounter("ndp_restricted_select_total").Increment();
  }

  // One-shot is the stream's single batch: the whole plan at once, so
  // its coalesced reads stay whole and no ghost point ships twice.
  const size_t planned = plan.bricks.size();
  const size_t per_batch =
      streamed ? static_cast<size_t>(request.stream->chunk_bricks)
               : std::max<size_t>(planned, 1);
  const size_t batches = (planned + per_batch - 1) / per_batch;
  const auto batch_end = [&](size_t begin) {
    return std::min(planned, begin + per_batch);
  };

  // The first batch reserves before anything is emitted, so an exhausted
  // budget sheds the request with the ordinary retryable `!busy:` — the
  // one window where shedding a stream is allowed.
  rpc::MemoryBudget::Reservation reservation;
  if (mem_budget_ != nullptr && planned > 0) {
    reservation = rpc::MemoryBudget::Reservation(
        *mem_budget_, plan.SlabBytes(0, batch_end(0), meta->type));
  }

  const auto on_cancel = [&]() {
    // One counter, one event: covers both the client's explicit cancel
    // frame and a peer-closed transport — either way the remaining
    // brick work is abandoned. The dispatcher stamps the terminal with
    // the `!cancelled:` error, so this result is never shipped.
    stream_cancel_.Record("array=" + array);
    return Value();
  };
  const StreamHeader header{h.dims,
                            h.geometry,
                            meta->type,
                            plan.bricks_total(),
                            static_cast<std::int64_t>(planned),
                            h.dims.PointCount()};
  if (streamed && !sink->Emit(StreamHeaderToValue(header))) {
    return on_cancel();
  }

  std::uint64_t stored_bytes = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t selected_total = 0;
  std::int64_t bricks_read = 0;
  double read_s = 0;  // busy time, summed over every batch's parts
  double select_s = 0;
  std::int64_t chunks = 0;
  Value one_shot_chunk;
  // Registry lookups are name-hash-under-mutex; a stream resolves its
  // per-chunk instruments once, not once per chunk.
  obs::WindowedHistogram* chunk_hist = nullptr;
  obs::Counter* chunk_counter = nullptr;
  if (streamed) {
    chunk_hist = &metrics_.GetWindowedHistogram("ndp_stream_chunk_seconds",
                                                obs::LatencyBounds());
    chunk_counter = &metrics_.GetCounter("ndp_stream_chunks_total");
  }
  for (size_t i = 0; i < batches; ++i) {
    if (streamed && sink->Cancelled()) return on_cancel();
    const size_t begin = i * per_batch;
    const size_t end = batch_end(begin);
    if (mem_budget_ != nullptr && i > 0) {
      reservation = ReserveMidStream(*mem_budget_,
                                     plan.SlabBytes(begin, end, meta->type));
    }
    std::optional<obs::Span> span;
    span.emplace(streamed ? "ndp.stream.chunk" : "ndp.read");
    const std::span<const std::int64_t> batch(plan.bricks.data() + begin,
                                              end - begin);
    BrickedSelectStats bstats;
    contour::Selection selection;
    try {
      selection = SelectBricks(reader, array, request.isovalues, plan, batch,
                               &bstats);
    } catch (const CorruptDataError&) {
      // No server-side rung is left: the recovery is a different data
      // copy — the sharded client's replica failover for restricted
      // requests, the caller's baseline read otherwise.
      if (only_bricks != nullptr) restricted_corrupt_.Record("array=" + array);
      throw;
    } catch (const IoError&) {
      if (only_bricks != nullptr) restricted_io_.Record("array=" + array);
      throw;
    }
    if (!streamed) span.emplace("ndp.pack");
    StreamChunk chunk{batch.back(), static_cast<std::int64_t>(batch.size()),
                      static_cast<std::int64_t>(selection.ids.size()),
                      EncodeSelection(selection)};
    stored_bytes += bstats.bytes_read;
    payload_bytes += chunk.payload.size();
    selected_total += selection.ids.size();
    bricks_read += bstats.bricks_read;
    read_s += bstats.read_seconds;
    select_s += bstats.scan_seconds;
    Value chunk_map = StreamChunkToValue(std::move(chunk));
    if (!streamed) {
      one_shot_chunk = std::move(chunk_map);
      continue;
    }
    const bool emitted = sink->Emit(chunk_map);
    // Release this batch's slab before the next reservation: the budget
    // sees one batch at a time, not the whole array.
    reservation = rpc::MemoryBudget::Reservation();
    span->End();
    chunk_hist->Observe(span->ElapsedSeconds());
    chunk_counter->Increment();
    ++chunks;
    if (!emitted) return on_cancel();
  }

  metrics_.GetCounter("ndp_select_requests_total").Increment();
  metrics_.GetCounter("ndp_bytes_in_total").Increment(stored_bytes);
  metrics_.GetCounter("ndp_bytes_out_total").Increment(payload_bytes);
  metrics_.GetCounter("ndp_selected_points_total").Increment(selected_total);
  if (plan.bricks_total() > bricks_read) {
    metrics_.GetCounter("ndp_bricks_skipped_total")
        .Increment(static_cast<std::uint64_t>(plan.bricks_total() -
                                              bricks_read));
  }

  // The terminal summary: the server's accounting. A stream's
  // "selected" counts shipped points, which may exceed the one-shot
  // count by ghost-layer points shared across batch boundaries —
  // consumers that need exact dedup use the SparseField's ValidCount
  // after scattering. One-shot adds its header and data maps.
  Map reply;
  reply.emplace_back(Value("stored_bytes"), Value(stored_bytes));
  reply.emplace_back(Value("raw_bytes"), Value(meta->raw_size));
  reply.emplace_back(Value("bricks_read"), Value(bricks_read));
  reply.emplace_back(Value("selected"), Value(selected_total));
  reply.emplace_back(Value("read_s"), Value(read_s));
  reply.emplace_back(Value("select_s"), Value(select_s));
  if (streamed) {
    reply.emplace_back(Value("chunks"), Value(chunks));
  } else {
    reply.emplace_back(Value(kOneShotHeaderKey), StreamHeaderToValue(header));
    if (!one_shot_chunk.IsNil()) {
      reply.emplace_back(Value(kOneShotChunkKey), std::move(one_shot_chunk));
    }
  }
  total_span.End();
  // Windowed: the scrape exports ndp_select_seconds (cumulative, as
  // ever) plus ndp_select_seconds_window for sliding-window quantiles.
  metrics_.GetWindowedHistogram("ndp_select_seconds", obs::LatencyBounds())
      .Observe(total_span.ElapsedSeconds());
  return Value(std::move(reply));
}

msgpack::Value NdpServer::Info(const std::string& key) {
  metrics_.GetCounter("ndp_info_requests_total").Increment();
  const io::VndReader reader(gateway_.Open(key));
  const auto& h = reader.header();
  Array arrays;
  for (const io::ArrayMeta& m : h.arrays) {
    Map e;
    e.emplace_back(Value("name"), Value(m.name));
    e.emplace_back(Value("type"),
                   Value(std::string(grid::DataTypeName(m.type))));
    e.emplace_back(Value("codec"), Value(m.codec));
    e.emplace_back(Value("raw_size"), Value(m.raw_size));
    e.emplace_back(Value("stored_size"), Value(m.stored_size));
    // Brick decomposition, so a sharded client can partition the brick
    // space without reading the full header: 0 bricks = monolithic blob.
    e.emplace_back(Value("bricks"),
                   Value(static_cast<std::int64_t>(
                       m.bricks.has_value() ? m.bricks->entries.size() : 0)));
    e.emplace_back(Value("brick_edge"),
                   Value(static_cast<std::int64_t>(
                       m.bricks.has_value() ? m.bricks->edge : 0)));
    arrays.push_back(Value(std::move(e)));
  }
  Map reply;
  reply.emplace_back(Value("dims"),
                     Value(Array{Value(h.dims.nx), Value(h.dims.ny),
                                 Value(h.dims.nz)}));
  reply.emplace_back(Value("arrays"), Value(std::move(arrays)));
  return Value(std::move(reply));
}

msgpack::Value NdpServer::Stats(const std::string& key,
                                const std::string& array, int bins) {
  VIZNDP_CHECK_MSG(bins >= 1 && bins <= 4096, "bins must be in [1, 4096]");
  metrics_.GetCounter("ndp_stats_requests_total").Increment();
  obs::Span total_span("ndp.stats");
  const io::VndReader reader(gateway_.Open(key));
  const io::ArrayMeta* meta = reader.header().Find(array);
  VIZNDP_CHECK_MSG(meta != nullptr, "no array '" + array + "' in VND file");

  const grid::DataArray data = reader.ReadArray(array);
  const auto [lo, hi] = data.Range();

  std::vector<std::uint64_t> histogram(static_cast<size_t>(bins), 0);
  std::uint64_t count = 0;  // the values binned: NaNs are skipped
  const double width = hi > lo ? (hi - lo) / bins : 1.0;
  const auto accumulate = [&](auto view) {
    for (const auto v : view) {
      const double d = static_cast<double>(v);
      if (std::isnan(d)) continue;
      // Clamped before the cast, which a non-finite double would make
      // undefined: with ±inf in the range the position is ±inf or NaN,
      // and fmax takes a NaN position to bin 0.
      const double bin = std::fmin(std::fmax((d - lo) / width, 0.0), bins - 1);
      ++histogram[static_cast<size_t>(bin)];
      ++count;
    }
  };
  switch (data.type()) {
    case grid::DataType::Float32: accumulate(data.View<float>()); break;
    case grid::DataType::Float64: accumulate(data.View<double>()); break;
    default: throw Error("stats require a floating-point array");
  }

  Map reply;
  reply.emplace_back(Value("min"), Value(lo));
  reply.emplace_back(Value("max"), Value(hi));
  reply.emplace_back(Value("count"), Value(count));
  Array counts;
  counts.reserve(histogram.size());
  for (const std::uint64_t c : histogram) counts.emplace_back(c);
  reply.emplace_back(Value("histogram"), Value(std::move(counts)));
  return Value(std::move(reply));
}

void NdpServer::Bind(rpc::Server& server) {
  server.BindStreaming(
      kRpcNdpSelect, [this](const Array& p, rpc::StreamSink* sink) -> Value {
        // A sink-less dispatch (e.g. the in-process Dispatch without a
        // transport) answers one-shot whatever the request asked.
        return Select(SelectRequestFromParams(p), sink);
      });
  server.Bind(kRpcNdpInfo, [this](const Array& p) -> Value {
    return Info(p.at(1).As<std::string>());
  });
  server.Bind(kRpcNdpStats, [this](const Array& p) -> Value {
    return Stats(p.at(1).As<std::string>(), p.at(2).As<std::string>(),
                 static_cast<int>(p.at(3).AsInt()));
  });
  // Telemetry scrape: this server's pre-filter registry, the rpc
  // dispatcher's per-method registry, and the process-wide substrate
  // registry (gateway + codec metrics). Names are disjoint by
  // construction, so a flat concatenation is unambiguous. The handler
  // lives inside `server`, so capturing it by reference is safe.
  // Structured by default; an optional params[0] format string ("text",
  // "json", "prom") renders server-side instead, so a Prometheus scraper
  // can hit the node through any thin RPC shim without a custom parser.
  server.Bind(kRpcNdpMetrics, [this, &server](const Array& p) -> Value {
    std::vector<obs::MetricSnapshot> all = metrics_.Snapshot();
    for (auto& s : server.metrics().Snapshot()) all.push_back(std::move(s));
    for (auto& s : obs::DefaultRegistry().Snapshot()) {
      all.push_back(std::move(s));
    }
    // Wall-clock + uptime stamp, once per scrape (not per registry), so
    // an external scraper can turn two expositions into rates.
    obs::StampSnapshot(all);
    if (!p.empty() && p.at(0).Is<std::string>() &&
        !p.at(0).As<std::string>().empty()) {
      return Value(obs::FormatSnapshot(all, p.at(0).As<std::string>()));
    }
    return SnapshotsToValue(all);
  });
  // Liveness summary: what is executing right now and under which trace,
  // so an operator staring at a slow client can jump straight from
  // "ndp.select, 2.3 s in flight, trace f00d..." to the merged timeline.
  server.Bind(kRpcNdpHealth, [this, &server](const Array&) -> Value {
    const std::uint64_t now_us = obs::GlobalTracer().NowMicros();
    Array requests;
    for (const rpc::Server::InflightRequest& r : server.InflightSnapshot()) {
      Map m;
      m.emplace_back(Value("method"), Value(r.method));
      m.emplace_back(Value("trace_id"), Value(r.trace_id));
      m.emplace_back(Value("age_us"),
                     Value(now_us > r.start_us ? now_us - r.start_us : 0));
      requests.push_back(Value(std::move(m)));
    }
    Map reply;
    reply.emplace_back(Value("draining"), Value(server.draining()));
    reply.emplace_back(Value("inflight"),
                       Value(static_cast<std::int64_t>(server.inflight())));
    reply.emplace_back(Value("mem_in_use"),
                       Value(server.memory_budget().in_use()));
    reply.emplace_back(Value("mem_limit"),
                       Value(server.memory_budget().limit()));
    reply.emplace_back(Value("requests"), Value(std::move(requests)));
    // Clock stamps plus the sliding-window latency summary of the
    // pre-filter. The window quantiles are what FleetScraper's
    // slow-node detector and `vizndp_tool top` read per probe.
    reply.emplace_back(Value("wall_s"), Value(obs::WallTimeSeconds()));
    reply.emplace_back(Value("uptime_s"),
                       Value(obs::ProcessUptimeSeconds()));
    {
      const obs::MetricSnapshot w =
          metrics_
              .GetWindowedHistogram("ndp_select_seconds",
                                    obs::LatencyBounds())
              .WindowSnapshot();
      Map window;
      window.emplace_back(Value("seconds"), Value(w.window_seconds));
      window.emplace_back(Value("count"), Value(w.count));
      window.emplace_back(Value("p50"), Value(obs::SnapshotQuantile(w, 0.5)));
      window.emplace_back(Value("p95"),
                          Value(obs::SnapshotQuantile(w, 0.95)));
      window.emplace_back(Value("p99"),
                          Value(obs::SnapshotQuantile(w, 0.99)));
      reply.emplace_back(Value("window"), Value(std::move(window)));
    }
    return Value(std::move(reply));
  });
}

}  // namespace vizndp::ndp
