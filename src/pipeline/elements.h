// Concrete pipeline stages: the VND reader source (with the paper's data
// array selection), the contour filter stage, and simple sinks.
#pragma once

#include <optional>

#include "contour/contour_filter.h"
#include "io/vnd_format.h"
#include "pipeline/algorithm.h"
#include "storage/file_gateway.h"

namespace vizndp::pipeline {

// Source: reads a VND timestep object through a FileGateway (local or
// remote), optionally restricted to selected arrays.
class VndReaderSource final : public Algorithm {
 public:
  VndReaderSource(storage::FileGateway gateway, std::string key)
      : gateway_(std::move(gateway)), key_(std::move(key)) {}

  void SetKey(std::string key) {
    key_ = std::move(key);
    Modified();
  }
  const std::string& key() const { return key_; }

  // Empty selection (default) reads every array.
  void SetArraySelection(std::vector<std::string> names) {
    selection_ = std::move(names);
    Modified();
  }

  std::string Name() const override { return "VndReaderSource(" + key_ + ")"; }
  int InputPortCount() const override { return 0; }

 protected:
  DataObjectPtr Execute(const std::vector<DataObjectPtr>& inputs) override;

 private:
  storage::FileGateway gateway_;
  std::string key_;
  std::vector<std::string> selection_;
};

// Filter: dataset in, contour PolyData out.
class ContourStage final : public Algorithm {
 public:
  ContourStage(std::string array_name, std::vector<double> isovalues)
      : array_name_(std::move(array_name)), filter_(std::move(isovalues)) {}

  void SetIsovalues(std::vector<double> isovalues) {
    filter_.SetIsovalues(std::move(isovalues));
    Modified();
  }

  std::string Name() const override { return "ContourStage(" + array_name_ + ")"; }
  int InputPortCount() const override { return 1; }

 protected:
  DataObjectPtr Execute(const std::vector<DataObjectPtr>& inputs) override;

 private:
  std::string array_name_;
  contour::ContourFilter filter_;
};

// Sink: writes incoming PolyData to a Wavefront OBJ file on Update().
class ObjWriterSink final : public Algorithm {
 public:
  explicit ObjWriterSink(std::string path) : path_(std::move(path)) {}

  std::string Name() const override { return "ObjWriterSink(" + path_ + ")"; }
  int InputPortCount() const override { return 1; }

 protected:
  DataObjectPtr Execute(const std::vector<DataObjectPtr>& inputs) override;

 private:
  std::string path_;
};

// Sink: records geometry statistics (counts, area) for programmatic use.
class PolyStatsSink final : public Algorithm {
 public:
  struct Stats {
    size_t points = 0;
    size_t triangles = 0;
    size_t lines = 0;
    double surface_area = 0.0;
  };

  std::string Name() const override { return "PolyStatsSink"; }
  int InputPortCount() const override { return 1; }

  // Valid after Update().
  const Stats& stats() const { return stats_; }

 protected:
  DataObjectPtr Execute(const std::vector<DataObjectPtr>& inputs) override;

 private:
  Stats stats_;
};

}  // namespace vizndp::pipeline
