#ifndef VCQ_RUNTIME_THROTTLED_SOURCE_H_
#define VCQ_RUNTIME_THROTTLED_SOURCE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace vcq::runtime {

/// Out-of-memory experiment substrate (the paper's Table 5, substituted).
/// The paper streams table data from a 1.4 GB/s SATA-SSD RAID while queries
/// run; we reproduce the same code path — scans gated on data arrival, I/O
/// overlapped with compute — by replaying the database through a
/// bandwidth-capped loader thread.
///
/// Usage: serialize the working set once with Spill(); then per measured run
/// call StartReplay(), which launches a loader that re-reads the file at the
/// configured bandwidth and advances a byte watermark. Scans call
/// WaitForBytes(offset) before touching tuples whose backing bytes lie
/// beyond the watermark.
class ThrottledSource {
 public:
  /// `bandwidth_bytes_per_sec` == 0 means unthrottled (pure file replay).
  ThrottledSource(std::string path, uint64_t bandwidth_bytes_per_sec);
  ~ThrottledSource();
  ThrottledSource(const ThrottledSource&) = delete;
  ThrottledSource& operator=(const ThrottledSource&) = delete;

  /// Writes `bytes` of data to the backing file (called once per setup).
  void Spill(const void* data, uint64_t bytes);

  /// Starts the loader thread; returns immediately.
  void StartReplay();

  /// Blocks until at least `offset` bytes have been replayed.
  void WaitForBytes(uint64_t offset);

  /// Blocks until the replay completed; returns total replayed bytes.
  uint64_t Join();

  uint64_t file_bytes() const { return file_bytes_; }

 private:
  void LoaderLoop();

  std::string path_;
  uint64_t bandwidth_;
  uint64_t file_bytes_ = 0;
  std::atomic<uint64_t> watermark_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::thread loader_;
  bool running_ = false;
};

}  // namespace vcq::runtime

#endif  // VCQ_RUNTIME_THROTTLED_SOURCE_H_
