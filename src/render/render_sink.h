// Pipeline sink that renders incoming PolyData to a PPM image — the
// terminal stage of our reproduction pipelines (the paper's OpenGL sink).
#pragma once

#include "pipeline/algorithm.h"
#include "render/rasterizer.h"

namespace vizndp::render {

class RenderSink final : public pipeline::Algorithm {
 public:
  RenderSink(std::string path, Camera camera, int width = 640,
             int height = 480)
      : path_(std::move(path)),
        camera_(camera),
        width_(width),
        height_(height) {}

  // Valid after Update(); lets tests assert something was drawn.
  double last_coverage() const { return last_coverage_; }

  std::string Name() const override { return "RenderSink(" + path_ + ")"; }
  int InputPortCount() const override { return 1; }

 protected:
  pipeline::DataObjectPtr Execute(
      const std::vector<pipeline::DataObjectPtr>& inputs) override;

 private:
  std::string path_;
  Camera camera_;
  int width_;
  int height_;
  double last_coverage_ = 0.0;
};

}  // namespace vizndp::render
