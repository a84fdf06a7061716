#include "trace/io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/fsio.hpp"

namespace razorbus::trace {

namespace {
// Version 1: the legacy fixed-32-wire format (magic + name + uint32
// words). Still written for 32-wire traces so archives produced before the
// width-generic datapath stay byte-identical, and always readable.
constexpr char kMagicV1[8] = {'R', 'B', 'T', 'R', 'A', 'C', 'E', '1'};
// Version 2: width-tagged. Layout after the magic: uint32 n_bits, uint64
// name length, name bytes, uint64 word count, then per word
// ceil(n_bits / 64) little-endian uint64 lanes (low lane first).
constexpr char kMagicV2[8] = {'R', 'B', 'T', 'R', 'A', 'C', 'E', '2'};

int lanes_per_word(int n_bits) { return (n_bits + 63) / 64; }

// Stage per-word payload elements through a chunk buffer so that
// multi-million-cycle traces cost a handful of stream writes, not one per
// word. `emit(word, chunk)` appends word's elements to the chunk.
template <typename Elem, typename Emit>
void write_chunked(std::ostream& os, const std::vector<BusWord>& words, Emit emit) {
  constexpr std::size_t kChunkElems = 1 << 17;
  std::vector<Elem> chunk;
  chunk.reserve(std::min<std::size_t>(words.size() * 2, kChunkElems));
  const auto flush = [&os, &chunk] {
    os.write(reinterpret_cast<const char*>(chunk.data()),
             static_cast<std::streamsize>(chunk.size() * sizeof(Elem)));
    chunk.clear();
  };
  for (const BusWord& word : words) {
    emit(word, chunk);
    if (chunk.size() >= kChunkElems) flush();
  }
  if (!chunk.empty()) flush();
}

std::optional<Trace> load_v1_body(std::istream& is) {
  std::uint64_t name_len = 0;
  if (!is.read(reinterpret_cast<char*>(&name_len), sizeof(name_len)) || name_len > 4096)
    return std::nullopt;
  Trace trace;
  trace.name.resize(name_len);
  if (!is.read(trace.name.data(), static_cast<std::streamsize>(name_len)))
    return std::nullopt;
  std::uint64_t n = 0;
  if (!is.read(reinterpret_cast<char*>(&n), sizeof(n)) || n > (1ull << 33))
    return std::nullopt;
  if (!util::claim_fits_stream(is, n, sizeof(std::uint32_t))) return std::nullopt;
  std::vector<std::uint32_t> raw(n);
  if (!is.read(reinterpret_cast<char*>(raw.data()),
               static_cast<std::streamsize>(n * sizeof(std::uint32_t))))
    return std::nullopt;
  trace.n_bits = 32;
  trace.words.assign(raw.begin(), raw.end());
  return trace;
}

std::optional<Trace> load_v2_body(std::istream& is) {
  std::uint32_t n_bits = 0;
  if (!is.read(reinterpret_cast<char*>(&n_bits), sizeof(n_bits)) || n_bits == 0 ||
      n_bits > static_cast<std::uint32_t>(BusWord::kMaxBits))
    return std::nullopt;
  std::uint64_t name_len = 0;
  if (!is.read(reinterpret_cast<char*>(&name_len), sizeof(name_len)) || name_len > 4096)
    return std::nullopt;
  Trace trace;
  trace.n_bits = static_cast<int>(n_bits);
  trace.name.resize(name_len);
  if (!is.read(trace.name.data(), static_cast<std::streamsize>(name_len)))
    return std::nullopt;
  std::uint64_t n = 0;
  if (!is.read(reinterpret_cast<char*>(&n), sizeof(n)) || n > (1ull << 33))
    return std::nullopt;
  const auto lanes = static_cast<std::size_t>(lanes_per_word(trace.n_bits));
  if (!util::claim_fits_stream(is, n, lanes * sizeof(std::uint64_t))) return std::nullopt;
  trace.words.reserve(n);
  // Bulk-read the lane stream in chunks, then assemble words.
  constexpr std::size_t kChunkWords = 1 << 16;
  std::vector<std::uint64_t> chunk;
  std::uint64_t remaining = n;
  while (remaining > 0) {
    const std::size_t batch =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, kChunkWords));
    chunk.resize(batch * lanes);
    if (!is.read(reinterpret_cast<char*>(chunk.data()),
                 static_cast<std::streamsize>(chunk.size() * sizeof(std::uint64_t))))
      return std::nullopt;
    for (std::size_t w = 0; w < batch; ++w)
      trace.words.push_back(BusWord::from_lanes(chunk[w * lanes],
                                                lanes > 1 ? chunk[w * lanes + 1] : 0));
    remaining -= batch;
  }
  return trace;
}

// Incremental reader behind open_trace_stream: the header is parsed once
// at construction (with the same claimed-count-vs-file-size defence as
// load_binary), after which each next_block reads and assembles at most
// `max` words' worth of payload.
class FileTraceSource final : public TraceSource {
 public:
  explicit FileTraceSource(std::string path) : path_(std::move(path)) {
    is_.open(path_, std::ios::binary);
    if (!is_) throw std::runtime_error("open_trace_stream: cannot open " + path_);

    char magic[sizeof(kMagicV1)];
    if (!is_.read(magic, sizeof(magic)))
      throw std::runtime_error("open_trace_stream: not a trace file: " + path_);
    std::uint32_t n_bits = 32;
    if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
      v1_ = true;
    } else if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
      if (!is_.read(reinterpret_cast<char*>(&n_bits), sizeof(n_bits)) || n_bits == 0 ||
          n_bits > static_cast<std::uint32_t>(BusWord::kMaxBits))
        throw std::runtime_error("open_trace_stream: not a trace file: " + path_);
    } else {
      throw std::runtime_error("open_trace_stream: not a trace file: " + path_);
    }
    n_bits_ = static_cast<int>(n_bits);
    lanes_ = static_cast<std::size_t>(lanes_per_word(n_bits_));

    std::uint64_t name_len = 0;
    if (!is_.read(reinterpret_cast<char*>(&name_len), sizeof(name_len)) ||
        name_len > 4096)
      throw std::runtime_error("open_trace_stream: not a trace file: " + path_);
    name_.resize(name_len);
    if (!is_.read(name_.data(), static_cast<std::streamsize>(name_len)))
      throw std::runtime_error("open_trace_stream: not a trace file: " + path_);
    if (!is_.read(reinterpret_cast<char*>(&remaining_), sizeof(remaining_)) ||
        remaining_ > (1ull << 33) ||
        !util::claim_fits_stream(is_, remaining_,
                           v1_ ? sizeof(std::uint32_t)
                               : lanes_ * sizeof(std::uint64_t)))
      throw std::runtime_error("open_trace_stream: not a trace file: " + path_);
    total_ = remaining_;
  }

  std::size_t next_block(BusWord* dst, std::size_t max) override {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(max, remaining_));
    if (n == 0) return 0;
    if (v1_) {
      raw32_.resize(n);
      if (!is_.read(reinterpret_cast<char*>(raw32_.data()),
                    static_cast<std::streamsize>(n * sizeof(std::uint32_t))))
        throw std::runtime_error("open_trace_stream: truncated trace file: " + path_);
      for (std::size_t w = 0; w < n; ++w) dst[w] = BusWord(raw32_[w]);
    } else {
      raw64_.resize(n * lanes_);
      if (!is_.read(reinterpret_cast<char*>(raw64_.data()),
                    static_cast<std::streamsize>(raw64_.size() * sizeof(std::uint64_t))))
        throw std::runtime_error("open_trace_stream: truncated trace file: " + path_);
      for (std::size_t w = 0; w < n; ++w)
        dst[w] = BusWord::from_lanes(raw64_[w * lanes_],
                                     lanes_ > 1 ? raw64_[w * lanes_ + 1] : 0);
    }
    remaining_ -= n;
    return n;
  }

  int n_bits() const override { return n_bits_; }
  const std::string& name() const override { return name_; }
  std::optional<std::uint64_t> length() const override { return total_; }
  std::unique_ptr<TraceSource> clone() const override {
    return std::make_unique<FileTraceSource>(path_);
  }

 private:
  std::string path_;
  std::ifstream is_;
  bool v1_ = false;
  int n_bits_ = 32;
  std::size_t lanes_ = 1;
  std::string name_;
  std::uint64_t remaining_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::uint32_t> raw32_;
  std::vector<std::uint64_t> raw64_;
};

}  // namespace

std::unique_ptr<TraceSource> open_trace_stream(const std::string& path) {
  return std::make_unique<FileTraceSource>(path);
}

void save_binary(const Trace& trace, std::ostream& os) {
  const std::uint64_t name_len = trace.name.size();
  const std::uint64_t n = trace.words.size();
  if (trace.n_bits == 32) {
    os.write(kMagicV1, sizeof(kMagicV1));
    os.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
    os.write(trace.name.data(), static_cast<std::streamsize>(name_len));
    os.write(reinterpret_cast<const char*>(&n), sizeof(n));
    write_chunked<std::uint32_t>(
        os, trace.words, [](const BusWord& word, std::vector<std::uint32_t>& chunk) {
          chunk.push_back(word.low32());
        });
    return;
  }
  os.write(kMagicV2, sizeof(kMagicV2));
  const auto n_bits = static_cast<std::uint32_t>(trace.n_bits);
  os.write(reinterpret_cast<const char*>(&n_bits), sizeof(n_bits));
  os.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  os.write(trace.name.data(), static_cast<std::streamsize>(name_len));
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  const int lanes = lanes_per_word(trace.n_bits);
  write_chunked<std::uint64_t>(
      os, trace.words, [lanes](const BusWord& word, std::vector<std::uint64_t>& chunk) {
        for (int l = 0; l < lanes; ++l) chunk.push_back(word.lane(l));
      });
}

std::optional<Trace> load_binary(std::istream& is) {
  char magic[sizeof(kMagicV1)];
  if (!is.read(magic, sizeof(magic))) return std::nullopt;
  if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) return load_v1_body(is);
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) return load_v2_body(is);
  return std::nullopt;
}

void save_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("save_trace_file: cannot open " + path);
  save_binary(trace, os);
  if (!os) throw std::runtime_error("save_trace_file: write failed for " + path);
}

Trace load_trace_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_trace_file: cannot open " + path);
  auto trace = load_binary(is);
  if (!trace) throw std::runtime_error("load_trace_file: not a trace file: " + path);
  return *std::move(trace);
}

void export_csv(const Trace& trace, std::ostream& os) {
  os << "cycle,word_hex\n";
  const int digits = (trace.n_bits + 3) / 4;
  char buffer[64];
  for (std::size_t i = 0; i < trace.words.size(); ++i) {
    const BusWord& w = trace.words[i];
    if (digits <= 16) {
      std::snprintf(buffer, sizeof(buffer), "%zu,%0*llx\n", i, digits,
                    static_cast<unsigned long long>(w.low64()));
    } else {
      std::snprintf(buffer, sizeof(buffer), "%zu,%0*llx%016llx\n", i, digits - 16,
                    static_cast<unsigned long long>(w.lane(1)),
                    static_cast<unsigned long long>(w.lane(0)));
    }
    os << buffer;
  }
}

}  // namespace razorbus::trace
