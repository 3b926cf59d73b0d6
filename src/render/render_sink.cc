#include "render/render_sink.h"

namespace vizndp::render {

pipeline::DataObjectPtr RenderSink::Execute(
    const std::vector<pipeline::DataObjectPtr>& inputs) {
  const contour::PolyData& poly = inputs.at(0)->AsPolyData();
  Framebuffer fb(width_, height_);
  RenderPolyData(poly, camera_, Material{}, fb);
  fb.WritePpm(path_);
  last_coverage_ = fb.CoverageFraction();
  return inputs.at(0);
}

}  // namespace vizndp::render
