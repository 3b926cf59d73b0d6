#include "io/vtk_ascii.h"

#include <iomanip>
#include <istream>
#include <ostream>

#include "common/error.h"

namespace vizndp::io {

void WriteLegacyVtk(std::ostream& os, const grid::Dataset& dataset,
                    const std::string& title) {
  const grid::Dims& dims = dataset.dims();
  const grid::UniformGeometry& geo = dataset.geometry();
  // max_digits10 for double: values survive a write/read round trip.
  os << std::setprecision(17);
  os << "# vtk DataFile Version 3.0\n"
     << title << "\n"
     << "ASCII\n"
     << "DATASET STRUCTURED_POINTS\n"
     << "DIMENSIONS " << dims.nx << " " << dims.ny << " " << dims.nz << "\n"
     << "ORIGIN " << geo.origin[0] << " " << geo.origin[1] << " "
     << geo.origin[2] << "\n"
     << "SPACING " << geo.spacing[0] << " " << geo.spacing[1] << " "
     << geo.spacing[2] << "\n"
     << "POINT_DATA " << dims.PointCount() << "\n";
  for (size_t a = 0; a < dataset.ArrayCount(); ++a) {
    const grid::DataArray& array = dataset.ArrayAt(a);
    const char* vtk_type =
        array.type() == grid::DataType::Float64 ? "double" : "float";
    os << "SCALARS " << array.name() << " " << vtk_type << " 1\n"
       << "LOOKUP_TABLE default\n";
    for (std::int64_t i = 0; i < array.size(); ++i) {
      os << array.ValueAsDouble(i)
         << ((i + 1) % 8 == 0 || i + 1 == array.size() ? '\n' : ' ');
    }
  }
}

namespace {

std::string NextToken(std::istream& is, const char* what) {
  std::string token;
  if (!(is >> token)) {
    throw DecodeError(std::string("legacy VTK: missing ") + what);
  }
  return token;
}

template <typename T>
T NextNumber(std::istream& is, const char* what) {
  T value;
  if (!(is >> value)) {
    throw DecodeError(std::string("legacy VTK: bad number for ") + what);
  }
  return value;
}

void Expect(std::istream& is, const std::string& want) {
  const std::string got = NextToken(is, want.c_str());
  if (got != want) {
    throw DecodeError("legacy VTK: expected '" + want + "', got '" + got + "'");
  }
}

}  // namespace

grid::Dataset ReadLegacyVtk(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) ||
      line.rfind("# vtk DataFile", 0) != 0) {
    throw DecodeError("legacy VTK: bad magic line");
  }
  std::getline(is, line);  // title (ignored)
  const std::string format = NextToken(is, "format");
  if (format != "ASCII") {
    throw DecodeError("legacy VTK: only ASCII files are supported");
  }
  Expect(is, "DATASET");
  const std::string kind = NextToken(is, "dataset type");
  if (kind != "STRUCTURED_POINTS") {
    throw DecodeError("legacy VTK: only STRUCTURED_POINTS is supported, got " +
                      kind);
  }

  grid::Dims dims;
  grid::UniformGeometry geo;
  std::int64_t point_count = -1;
  grid::Dataset dataset;
  bool have_dataset = false;

  std::string token;
  while (is >> token) {
    if (token == "DIMENSIONS") {
      dims.nx = NextNumber<std::int64_t>(is, "nx");
      dims.ny = NextNumber<std::int64_t>(is, "ny");
      dims.nz = NextNumber<std::int64_t>(is, "nz");
    } else if (token == "ORIGIN") {
      for (auto& v : geo.origin) v = NextNumber<double>(is, "origin");
    } else if (token == "SPACING") {
      for (auto& v : geo.spacing) v = NextNumber<double>(is, "spacing");
    } else if (token == "POINT_DATA") {
      point_count = NextNumber<std::int64_t>(is, "point count");
      if (point_count != dims.PointCount()) {
        throw DecodeError("legacy VTK: POINT_DATA count does not match "
                          "DIMENSIONS");
      }
      dataset = grid::Dataset(dims, geo);
      have_dataset = true;
    } else if (token == "SCALARS") {
      if (!have_dataset) {
        throw DecodeError("legacy VTK: SCALARS before POINT_DATA");
      }
      const std::string name = NextToken(is, "array name");
      const std::string type = NextToken(is, "scalar type");
      // Optional numComponents (defaults to 1); LOOKUP_TABLE follows.
      std::string next = NextToken(is, "LOOKUP_TABLE");
      if (next != "LOOKUP_TABLE") {
        if (next != "1") {
          throw DecodeError("legacy VTK: only 1-component scalars supported");
        }
        Expect(is, "LOOKUP_TABLE");
      }
      NextToken(is, "lookup table name");
      if (type == "double") {
        std::vector<double> values(static_cast<size_t>(point_count));
        for (auto& v : values) v = NextNumber<double>(is, name.c_str());
        dataset.AddArray(grid::DataArray::FromVector(name, std::move(values)));
      } else if (type == "float") {
        std::vector<float> values(static_cast<size_t>(point_count));
        for (auto& v : values) v = NextNumber<float>(is, name.c_str());
        dataset.AddArray(grid::DataArray::FromVector(name, std::move(values)));
      } else {
        throw DecodeError("legacy VTK: unsupported scalar type " + type);
      }
    } else {
      throw DecodeError("legacy VTK: unexpected token '" + token + "'");
    }
  }
  if (!have_dataset) {
    throw DecodeError("legacy VTK: no POINT_DATA section");
  }
  return dataset;
}

}  // namespace vizndp::io
