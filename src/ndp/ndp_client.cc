#include "ndp/ndp_client.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/error.h"
#include "contour/contour_filter.h"
#include "io/vnd_format.h"
#include "obs/audit.h"
#include "obs/context.h"
#include "obs/trace.h"

namespace vizndp::ndp {

using msgpack::Array;
using msgpack::Value;

NdpClient::NdpClient(std::shared_ptr<rpc::Client> client, std::string bucket,
                     const NdpClientOptions& options)
    : client_(std::move(client)),
      bucket_(std::move(bucket)),
      options_(options) {
  if (options_.retry.enabled()) {
    client_->SetRetryPolicy(options_.retry);
  }
}

contour::PolyData NdpFetcher::Contour(const std::string& key,
                                      const std::string& array,
                                      const std::vector<double>& isovalues,
                                      NdpLoadStats* stats) {
  grid::UniformGeometry geometry;
  const contour::SparseField field =
      FetchSparseField(key, array, isovalues, &geometry, stats);
  return field.Contour(geometry, isovalues);
}

namespace {

const obs::Audit kStreamResume("ndp_stream_resume_total", "ndp.stream_resume");
const obs::Audit kFallback("ndp_fallback_total", "ndp.fallback");

// On a resume the stream restarts with a fresh header; the original
// stays authoritative (its stream_bricks is the full stream's size, for
// progress), but it must describe the same grid.
void AcceptHeader(StreamAccumulator& acc, const StreamHeader& h,
                  const NdpClient::StreamHeaderFn& on_header) {
  if (acc.got_header) {
    if (!SameGrid(acc.header, h)) {
      throw DecodeError("stream resume: header shape mismatch");
    }
    return;
  }
  acc.got_header = true;
  acc.header = h;
  if (on_header) on_header(h);
}

void AcceptTerminal(StreamAccumulator& acc, const Value& terminal) {
  acc.stored_bytes += terminal.At("stored_bytes").AsUint();
  acc.raw_bytes = terminal.At("raw_bytes").AsUint();
  acc.bricks_read += terminal.At("bricks_read").AsInt();
  acc.server_read_s += terminal.At("read_s").AsDouble();
  acc.server_select_s += terminal.At("select_s").AsDouble();
}

}  // namespace

void AddLoadStats(const StreamAccumulator& acc, NdpLoadStats& stats) {
  stats.streamed = stats.streamed || acc.streamed();
  stats.stream_chunks += acc.chunks;
  stats.stream_resumes += acc.resumes;
  stats.payload_bytes += acc.payload_bytes;
  stats.stored_bytes += acc.stored_bytes;
  stats.raw_bytes = std::max(stats.raw_bytes, acc.raw_bytes);
  stats.bricks_read += acc.bricks_read;
  stats.bricks_total = std::max(stats.bricks_total, acc.header.bricks_total);
  stats.total_points =
      std::max(stats.total_points,
               static_cast<std::uint64_t>(acc.header.total_points));
  stats.server_read_s = std::max(stats.server_read_s, acc.server_read_s);
  stats.server_select_s = std::max(stats.server_select_s, acc.server_select_s);
  stats.client_decode_s += acc.decode_s;
  stats.client_scatter_s += acc.scatter_s;
}

bool NdpClient::AcceptMap(StreamAccumulator& acc, StreamDecoder& decoder,
                          Value map, const StreamDeliverFn& deliver,
                          const StreamHeaderFn& on_header) const {
  obs::Span decode_span("ndp.decode");
  const std::optional<StreamChunk> chunk = decoder.Feed(std::move(map));
  if (!chunk.has_value()) {
    AcceptHeader(acc, decoder.header(), on_header);
    decode_span.End();
    acc.decode_s += decode_span.ElapsedSeconds();
    return true;
  }
  DecodedSelection sel = DecodeSelection(chunk->payload, acc.header.dims);
  decode_span.End();
  acc.decode_s += decode_span.ElapsedSeconds();
  const size_t points = sel.ids.size();
  obs::Span scatter_span("ndp.scatter");
  if (!deliver(std::move(sel))) return false;
  scatter_span.End();
  acc.scatter_s += scatter_span.ElapsedSeconds();
  acc.cursor = chunk->cursor;
  acc.chunks += 1;
  acc.bricks_done += chunk->bricks;
  acc.shipped_points += points;
  acc.payload_bytes += chunk->payload.size();
  if (acc.streamed() && progress_) {
    progress_(StreamProgress{acc.chunks, acc.bricks_done,
                             acc.header.stream_bricks, acc.shipped_points,
                             acc.resumes});
  }
  return true;
}

void NdpClient::StreamSelectOnce(const std::string& key,
                                 const std::string& array,
                                 const std::vector<double>& isovalues,
                                 const std::vector<std::int64_t>* only_bricks,
                                 StreamAccumulator& acc,
                                 const StreamDeliverFn& deliver,
                                 const StreamHeaderFn& on_header) {
  SelectRequest request{bucket_, key, array, isovalues, {}, {}};
  if (only_bricks != nullptr) request.bricks = *only_bricks;
  if (acc.streamed()) {
    request.stream = StreamParams{acc.stream.chunk_bricks, acc.cursor};
  }
  StreamDecoder decoder(acc.cursor);

  // Each attempt's RPC exchange is one ndp.partial span (the unit a shard
  // sub-request traces as), and only the call depends on the reply shape.
  // A one-shot's header and data maps ride in its terminal, after whose
  // summary they are accepted, so nothing fails once its chunk is
  // delivered.
  Array params = SelectRequestToParams(request);
  Value terminal;
  {
    obs::Span rpc_span("ndp.partial");
    terminal =
        acc.streamed()
            ? client_->CallStreaming(
                  kRpcNdpSelect, std::move(params),
                  {options_.call_timeout, acc.stream.chunk_timeout},
                  [&](const Value& chunk_map) {
                    return AcceptMap(acc, decoder, chunk_map, deliver,
                                     on_header);
                  },
                  &acc.cancelled)
            : client_->Call(kRpcNdpSelect, std::move(params), CallOpts());
  }
  if (acc.cancelled) return;
  AcceptTerminal(acc, terminal);
  for (auto& [k, v] : terminal.AsMutable<msgpack::Map>()) {
    if ((k == Value(kOneShotHeaderKey) || k == Value(kOneShotChunkKey)) &&
        !AcceptMap(acc, decoder, std::move(v), deliver, on_header)) {
      return;
    }
  }
  decoder.Finish();
}

void NdpClient::StreamSelect(const std::string& key, const std::string& array,
                             const std::vector<double>& isovalues,
                             const std::vector<std::int64_t>* only_bricks,
                             StreamAccumulator& acc,
                             const StreamDeliverFn& deliver,
                             const StreamHeaderFn& on_header,
                             const StreamWantedFn& wanted) {
  bool refused = false;  // the caller cancelled: a lost drain never resumes
  const StreamDeliverFn tracked = [&](DecodedSelection&& sel) {
    refused = !deliver(std::move(sel));
    return !refused;
  };
  for (int attempt = 0;; ++attempt) {
    try {
      StreamSelectOnce(key, array, isovalues, only_bricks, acc, tracked,
                       on_header);
      return;
    } catch (const Error& e) {
      // Resumable: a stream died (deadline, stall, peer gone, a
      // transient I/O blip) but its cursor survived. Anything else —
      // application errors, corruption — propagates; a different data
      // copy, not a retry, is the recovery for those.
      const bool resumable = dynamic_cast<const TimeoutError*>(&e) !=
                                 nullptr ||
                             dynamic_cast<const PeerClosedError*>(&e) !=
                                 nullptr ||
                             dynamic_cast<const TransientIoError*>(&e) !=
                                 nullptr;
      if (refused || !acc.streamed() || !resumable ||
          attempt >= acc.stream.max_resumes || (wanted && !wanted())) {
        throw;
      }
      acc.resumes += 1;
      kStreamResume.Record("key=" + key +
                           " cursor=" + std::to_string(acc.cursor));
      net::BackoffSleep(options_.retry, attempt + 1,
                        net::MixBits(0x73747265616Dull));
    }
  }
}

contour::SparseField NdpClient::FetchSparseField(
    const std::string& key, const std::string& array,
    const std::vector<double>& isovalues, grid::UniformGeometry* geometry,
    NdpLoadStats* stats) {
  // Trace root: when someone is collecting (tracer enabled) and no outer
  // scope minted one already (NdpContourSource does, so its fallback
  // shares the trace), this fetch becomes one end-to-end distributed
  // trace. With tracing off nothing is minted and the RPC frames keep
  // the pre-tracing wire shape.
  std::optional<obs::ScopedTraceContext> root;
  if (obs::GlobalTracer().enabled() && !obs::CurrentTraceContext().valid()) {
    root.emplace(obs::TraceContext::Mint(/*sampled=*/true));
  }
  obs::Span total_span("ndp.fetch");
  StreamAccumulator acc;
  acc.stream = stream_;
  // The field is built once the grid is known, outside the decode and
  // scatter spans: ndp.fetch's own time is the field build.
  std::optional<contour::SparseField> field;
  StreamSelect(
      key, array, isovalues, nullptr, acc,
      [&](DecodedSelection&& sel) {
        field->Scatter(sel.ids, sel.values);
        return true;
      },
      [&](const StreamHeader& h) { field.emplace(h.dims, h.dtype); });
  VIZNDP_CHECK_MSG(field.has_value(), "select produced no header");
  if (geometry != nullptr) *geometry = acc.header.geometry;
  if (stats != nullptr) {
    *stats = NdpLoadStats{};
    stats->trace_id = obs::CurrentTraceContext().trace_id;
    AddLoadStats(acc, *stats);
    // Deduplicated: stream chunks may ship ghost points twice.
    stats->selected_points = static_cast<std::uint64_t>(field->ValidCount());
    total_span.End();
    stats->client_s = total_span.ElapsedSeconds();
  }
  return std::move(*field);
}

NdpClient::ArrayStats NdpClient::Stats(const std::string& key,
                                       const std::string& array, int bins) {
  const Value reply =
      client_->Call(kRpcNdpStats, Array{Value(bucket_), Value(key),
                                        Value(array), Value(bins)},
                    CallOpts());
  ArrayStats stats;
  stats.min = reply.At("min").AsDouble();
  stats.max = reply.At("max").AsDouble();
  stats.count = reply.At("count").AsUint();
  for (const Value& c : reply.At("histogram").As<Array>()) {
    stats.histogram.push_back(c.AsUint());
  }
  return stats;
}

NdpClient::FileInfo NdpClient::Info(const std::string& key) {
  const Value reply = client_->Call(
      kRpcNdpInfo, Array{Value(bucket_), Value(key)}, CallOpts());
  FileInfo info;
  const auto& dims_v = reply.At("dims").As<Array>();
  info.dims = grid::Dims{dims_v.at(0).AsInt(), dims_v.at(1).AsInt(),
                         dims_v.at(2).AsInt()};
  for (const Value& v : reply.At("arrays").As<Array>()) {
    FileInfo::Array a;
    a.name = v.At("name").As<std::string>();
    a.raw_size = v.At("raw_size").AsUint();
    a.stored_size = v.At("stored_size").AsUint();
    a.brick_count = v.At("bricks").AsInt();
    a.brick_edge = static_cast<std::int32_t>(v.At("brick_edge").AsInt());
    info.arrays.push_back(std::move(a));
  }
  return info;
}

std::vector<obs::MetricSnapshot> NdpClient::ScrapeMetrics() {
  const Value reply = client_->Call(kRpcNdpMetrics, Array{}, CallOpts());
  std::vector<obs::MetricSnapshot> out;
  for (const Value& v : reply.As<Array>()) {
    obs::MetricSnapshot s;
    s.name = v.At("name").As<std::string>();
    s.kind = obs::MetricKindFromName(v.At("kind").As<std::string>());
    s.value = v.At("value").AsDouble();
    if (const Value* count = v.Find("count")) s.count = count->AsUint();
    if (const Value* bounds = v.Find("bounds")) {
      for (const Value& b : bounds->As<Array>()) {
        s.bounds.push_back(b.AsDouble());
      }
    }
    if (const Value* buckets = v.Find("buckets")) {
      for (const Value& b : buckets->As<Array>()) {
        s.buckets.push_back(b.AsUint());
      }
    }
    if (const Value* ev = v.Find("exemplar_value")) {
      s.exemplar_value = ev->AsDouble();
    }
    if (const Value* et = v.Find("exemplar_trace")) {
      s.exemplar_trace_id = et->AsUint();
    }
    if (const Value* ws = v.Find("window_s")) {
      s.window_seconds = ws->AsDouble();
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string NdpClient::ScrapeMetricsFormatted(const std::string& format) {
  const Value reply =
      client_->Call(kRpcNdpMetrics, Array{Value(format)}, CallOpts());
  return reply.As<std::string>();
}

NdpClient::HealthReport NdpClient::Health() {
  const Value reply = client_->Call(kRpcNdpHealth, Array{}, CallOpts());
  HealthReport report;
  report.draining = reply.At("draining").As<bool>();
  report.inflight = reply.At("inflight").AsInt();
  report.mem_in_use = reply.At("mem_in_use").AsUint();
  report.mem_limit = reply.At("mem_limit").AsUint();
  for (const Value& v : reply.At("requests").As<Array>()) {
    HealthReport::Request r;
    r.method = v.At("method").As<std::string>();
    r.trace_id = v.At("trace_id").AsUint();
    r.age_us = v.At("age_us").AsUint();
    report.requests.push_back(std::move(r));
  }
  report.wall_s = reply.At("wall_s").AsDouble();
  report.uptime_s = reply.At("uptime_s").AsDouble();
  const Value& window = reply.At("window");
  report.window_seconds = window.At("seconds").AsDouble();
  report.window_count = window.At("count").AsUint();
  report.window_p50 = window.At("p50").AsDouble();
  report.window_p95 = window.At("p95").AsDouble();
  report.window_p99 = window.At("p99").AsDouble();
  return report;
}

// Picks `k` contour values at evenly spaced quantiles of the value
// distribution (excluding the extremes, as the paper's sweep does).
std::vector<double> SuggestIsovalues(const NdpClient::ArrayStats& stats,
                                     int k) {
  std::vector<double> out;
  if (stats.count == 0 || stats.histogram.empty() || k < 1) return out;
  const double step = 1.0 / (k + 1);
  std::uint64_t seen = 0;
  size_t bin = 0;
  for (int i = 1; i <= k; ++i) {
    const auto target =
        static_cast<std::uint64_t>(step * i * static_cast<double>(stats.count));
    while (bin + 1 < stats.histogram.size() &&
           seen + stats.histogram[bin] < target) {
      seen += stats.histogram[bin];
      ++bin;
    }
    out.push_back(stats.BinLow(bin) +
                  0.5 * (stats.max - stats.min) /
                      static_cast<double>(stats.histogram.size()));
  }
  return out;
}

pipeline::DataObjectPtr NdpContourSource::Execute(
    const std::vector<pipeline::DataObjectPtr>&) {
  // Mint the trace root here rather than in FetchSparseField, so a
  // degraded execution keeps its whole story — failed NDP attempts AND
  // the baseline fallback — under one trace_id.
  std::optional<obs::ScopedTraceContext> root;
  if (obs::GlobalTracer().enabled() && !obs::CurrentTraceContext().valid()) {
    root.emplace(obs::TraceContext::Mint(/*sampled=*/true));
  }
  try {
    return std::make_shared<pipeline::DataObject>(
        client_->Contour(key_, array_, isovalues_, &stats_));
  } catch (const RpcError&) {
    // The server answered: this is an application error (bad key, bad
    // array name, exhausted busy retries) that the baseline read would
    // hit too. Don't mask it. (BusyError lands here by design: a
    // saturated server does not mean the *store* is bad.)
    throw;
  } catch (const Error& e) {
    // Timeout / peer gone / corrupt frame after the client's retries —
    // or CorruptDataError, meaning the store itself failed every
    // server-side recovery step: the smart path is unreachable, so
    // degrade to the full read (possibly against a different replica).
    if (!fallback_.has_value()) throw;
    kFallback.Record("key=" + key_);
    std::fprintf(stderr,
                 "[vizndp] warning: NDP path for '%s' unavailable (%s); "
                 "falling back to baseline full-array read\n",
                 key_.c_str(), e.what());
    return std::make_shared<pipeline::DataObject>(BaselineContour());
  }
}

// The traditional pipeline in miniature: fetch the whole array through
// the gateway, contour locally. Geometry matches the NDP path exactly —
// both ultimately run the same marching-cubes tables over the same
// values (tests/fault_test.cc holds this bit-identical).
contour::PolyData NdpContourSource::BaselineContour() {
  obs::Span span("ndp.fallback:" + key_);
  io::VndReader reader(fallback_->Open(key_));
  const grid::DataArray data = reader.ReadArray(array_);

  stats_ = NdpLoadStats{};
  stats_.used_fallback = true;
  stats_.trace_id = obs::CurrentTraceContext().trace_id;
  stats_.stored_bytes = reader.StoredSize(array_);
  stats_.raw_bytes = static_cast<std::uint64_t>(data.byte_size());
  stats_.total_points = static_cast<std::uint64_t>(
      reader.header().dims.PointCount());
  stats_.selected_points = stats_.total_points;  // full read: everything

  contour::ContourFilter filter(isovalues_);
  contour::PolyData poly =
      filter.Execute(reader.header().dims, reader.header().geometry, data);
  span.End();
  stats_.client_s = span.ElapsedSeconds();
  return poly;
}

}  // namespace vizndp::ndp
