// Codec registry: name -> DoubleCodec factory.
//
// MLOC stores each variable's codec name in the store meta so a reader
// opens the right decoder without out-of-band configuration; a store that
// names a codec not registered here fails to open. The registry also feeds
// the ablation bench (sweep all registered codecs over one workload).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compress/codec.hpp"

namespace mloc {

/// Construct a codec by registered name: "raw", "mzip", "isobar" or
/// "isabela". "isabela" accepts an optional ":<error_bound>" suffix, e.g.
/// "isabela:0.001". Unknown names yield NotFound.
Result<std::shared_ptr<const DoubleCodec>> make_double_codec(
    const std::string& name);

/// Construct a bytes->bytes codec: "raw" or "mzip". These are the
/// codecs eligible for PLoD byte-column compression (MLOC-COL mode);
/// NotFound for double-only codecs.
Result<std::shared_ptr<const ByteCodec>> make_byte_codec(
    const std::string& name);

/// True when `name` names a byte codec (PLoD-compatible).
bool is_byte_codec(const std::string& name);

/// All base codec names (without parameter suffixes).
std::vector<std::string> registered_codec_names();

}  // namespace mloc
