// VTK-style demand-driven pipeline: sources produce data objects, filters
// transform them, sinks consume them (Fig. 2 of the paper). Each
// algorithm tracks a modification time; Update() re-executes an algorithm
// only when it, or anything upstream, changed since its last execution.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "contour/polydata.h"
#include "grid/dataset.h"

namespace vizndp::pipeline {

// The payload types that flow between pipeline stages.
class DataObject {
 public:
  DataObject() = default;
  DataObject(grid::Dataset dataset) : v_(std::move(dataset)) {}
  DataObject(contour::PolyData poly) : v_(std::move(poly)) {}

  const grid::Dataset& AsDataset() const;
  const contour::PolyData& AsPolyData() const;

 private:
  std::variant<std::monostate, grid::Dataset, contour::PolyData> v_;
};

using DataObjectPtr = std::shared_ptr<const DataObject>;

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  // Connects `producer`'s output to this algorithm's input port. The
  // producer must outlive this algorithm.
  void SetInputConnection(int port, Algorithm* producer);

  // Brings the output up to date (recursively updating upstream) and
  // returns it.
  DataObjectPtr UpdateAndGetOutput();

  // Re-executes this algorithm if it or anything upstream is out of date.
  void Update();

  // Marks this algorithm dirty (call after changing a parameter).
  void Modified() { mtime_ = NextTimestamp(); }

  // Diagnostics / tests: how many times Execute() actually ran.
  std::uint64_t execution_count() const { return execution_count_; }

  virtual std::string Name() const = 0;
  virtual int InputPortCount() const = 0;

 protected:
  Algorithm() { Modified(); }

  // Runs the algorithm; inputs arrive in port order and are up to date.
  virtual DataObjectPtr Execute(
      const std::vector<DataObjectPtr>& inputs) = 0;

  static std::uint64_t NextTimestamp();

 private:
  std::vector<Algorithm*> inputs_;
  DataObjectPtr output_;
  std::uint64_t mtime_ = 0;        // last parameter change
  std::uint64_t output_time_ = 0;  // timestamp of last execution
  std::uint64_t execution_count_ = 0;
};

}  // namespace vizndp::pipeline
