// Codec interfaces (paper §III-B-4: "any compression technique ... can be
// plugged into the framework").
//
// Two shapes of codec exist in MLOC:
//  * ByteCodec — lossless bytes->bytes (mzip, the Zlib-style codec, and
//    raw); used on PLoD byte-columns (MLOC-COL).
//  * DoubleCodec — operates on whole double buffers: lossless ISOBAR-like
//    (MLOC-ISO), or lossy within a guaranteed point-wise relative error
//    bound (ISABELA-like, MLOC-ISA).
// ByteCodecAdapter lifts any ByteCodec to a (lossless) DoubleCodec so the
// MLOC pipeline deals in one interface.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace mloc {

class ByteCodec {
 public:
  virtual ~ByteCodec() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Compress `raw` into a self-describing stream.
  [[nodiscard]] virtual Result<Bytes> encode(
      std::span<const std::uint8_t> raw) const = 0;

  /// Invert encode(). Fails with CorruptData on malformed streams.
  [[nodiscard]] virtual Result<Bytes> decode(
      std::span<const std::uint8_t> stream) const = 0;
};

class DoubleCodec {
 public:
  virtual ~DoubleCodec() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True when decode returns bit-exact inputs.
  [[nodiscard]] virtual bool lossless() const noexcept = 0;

  /// Guaranteed max point-wise relative error (0 for lossless codecs).
  [[nodiscard]] virtual double max_relative_error() const noexcept = 0;

  [[nodiscard]] virtual Result<Bytes> encode(
      std::span<const double> values) const = 0;

  [[nodiscard]] virtual Result<std::vector<double>> decode(
      std::span<const std::uint8_t> stream) const = 0;
};

/// Lossless DoubleCodec backed by a ByteCodec over the raw byte image.
class ByteCodecAdapter final : public DoubleCodec {
 public:
  explicit ByteCodecAdapter(std::shared_ptr<const ByteCodec> inner)
      : inner_(std::move(inner)) {
    MLOC_CHECK(inner_ != nullptr);
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] bool lossless() const noexcept override { return true; }
  [[nodiscard]] double max_relative_error() const noexcept override {
    return 0.0;
  }

  [[nodiscard]] Result<Bytes> encode(
      std::span<const double> values) const override {
    const Bytes raw = doubles_to_bytes(values);
    return inner_->encode(raw);
  }

  [[nodiscard]] Result<std::vector<double>> decode(
      std::span<const std::uint8_t> stream) const override {
    MLOC_ASSIGN_OR_RETURN(Bytes raw, inner_->decode(stream));
    return bytes_to_doubles(raw);
  }

 private:
  std::shared_ptr<const ByteCodec> inner_;
};

/// Identity ByteCodec (stores raw). Baseline and incompressible-plane path.
class RawCodec final : public ByteCodec {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "raw"; }
  [[nodiscard]] Result<Bytes> encode(
      std::span<const std::uint8_t> raw) const override {
    return Bytes(raw.begin(), raw.end());
  }
  [[nodiscard]] Result<Bytes> decode(
      std::span<const std::uint8_t> stream) const override {
    return Bytes(stream.begin(), stream.end());
  }
};

}  // namespace mloc
