// Legacy-VTK ASCII interop: writes a Dataset as a "# vtk DataFile
// Version 3.0" STRUCTURED_POINTS file (openable in ParaView/VisIt) and
// reads that subset back.
#pragma once

#include <iosfwd>
#include <string>

#include "grid/dataset.h"

namespace vizndp::io {

// Writes the grid and every array as POINT_DATA scalars.
void WriteLegacyVtk(std::ostream& os, const grid::Dataset& dataset,
                    const std::string& title = "vizndp dataset");

// Parses a legacy ASCII STRUCTURED_POINTS file (the subset WriteLegacyVtk
// emits: DIMENSIONS/ORIGIN/SPACING + POINT_DATA SCALARS float|double).
// Throws DecodeError on malformed input.
grid::Dataset ReadLegacyVtk(std::istream& is);

}  // namespace vizndp::io
