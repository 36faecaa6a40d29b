#include "compress/registry.hpp"

#include <cstdlib>

#include "compress/isabela.hpp"
#include "compress/isobar.hpp"
#include "compress/mzip.hpp"

namespace mloc {

Result<std::shared_ptr<const DoubleCodec>> make_double_codec(
    const std::string& name) {
  const auto colon = name.find(':');
  const std::string base = name.substr(0, colon);
  const std::string param =
      (colon == std::string::npos) ? "" : name.substr(colon + 1);

  if (base == "raw") {
    return std::shared_ptr<const DoubleCodec>(
        std::make_shared<ByteCodecAdapter>(std::make_shared<RawCodec>()));
  }
  if (base == "mzip") {
    return std::shared_ptr<const DoubleCodec>(
        std::make_shared<ByteCodecAdapter>(std::make_shared<MzipCodec>()));
  }
  if (base == "isobar") {
    return std::shared_ptr<const DoubleCodec>(std::make_shared<IsobarCodec>());
  }
  if (base == "isabela") {
    IsabelaCodec::Options opts;
    if (!param.empty()) {
      const double eps = std::atof(param.c_str());
      if (eps <= 0.0 || eps >= 1.0) {
        return invalid_argument("isabela error bound must be in (0,1): " + param);
      }
      opts.error_bound = eps;
    }
    return std::shared_ptr<const DoubleCodec>(
        std::make_shared<IsabelaCodec>(opts));
  }
  return not_found("unknown codec: " + name);
}

Result<std::shared_ptr<const ByteCodec>> make_byte_codec(
    const std::string& name) {
  if (name == "raw") {
    return std::shared_ptr<const ByteCodec>(std::make_shared<RawCodec>());
  }
  if (name == "mzip") {
    return std::shared_ptr<const ByteCodec>(std::make_shared<MzipCodec>());
  }
  return not_found("not a byte codec: " + name);
}

bool is_byte_codec(const std::string& name) {
  return name == "raw" || name == "mzip";
}

std::vector<std::string> registered_codec_names() {
  return {"raw", "mzip", "isobar", "isabela"};
}

}  // namespace mloc
