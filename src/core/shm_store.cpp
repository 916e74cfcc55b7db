#include "core/shm_store.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/failpoint.h"

namespace adsala::core {

namespace {

Error io_error(const std::string& path, const std::string& what) {
  return Error{ErrorCode::kInternal,
               path + ": " + what + ": " + std::strerror(errno)};
}

/// Cross-process atomic view of the mapped generation counter.
std::atomic_ref<std::uint64_t> generation_ref(ShmHeader* header) {
  return std::atomic_ref<std::uint64_t>(header->generation);
}

struct Mapping {
  void* addr = MAP_FAILED;
  std::size_t bytes = 0;
  ~Mapping() {
    if (addr != MAP_FAILED) ::munmap(addr, bytes);
  }
};

struct OwnedFd {
  int fd = -1;
  ~OwnedFd() {
    if (fd >= 0) ::close(fd);  // close also releases a held flock
  }
};

/// One payload extent: [offset, offset + model_bytes + config_bytes) with
/// config packed directly after model.
struct Extent {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  bool valid() const { return end > begin; }
};

Extent active_extent(const ShmHeader& h) {
  Extent e;
  if (h.model_bytes + h.config_bytes == 0) return e;
  e.begin = std::min(h.model_offset, h.config_offset);
  e.end = std::max(h.model_offset + h.model_bytes,
                   h.config_offset + h.config_bytes);
  return e;
}

/// [off, off + len) lies past the header and inside `size` bytes. Written
/// so that no sum can wrap: the descriptors come from a file.
bool extent_inside(std::uint64_t off, std::uint64_t len, std::uint64_t size) {
  return off >= kShmHeaderBytes && off <= size && len <= size - off;
}

bool descriptors_sane(std::uint64_t model_off, std::uint64_t model_len,
                      std::uint64_t config_off, std::uint64_t config_len,
                      std::uint64_t mapped_bytes) {
  return extent_inside(model_off, model_len, mapped_bytes) &&
         extent_inside(config_off, config_len, mapped_bytes);
}

}  // namespace

std::uint64_t process_start_nonce(pid_t pid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/stat", static_cast<int>(pid));
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  char buf[4096];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  if (n == 0) return 0;
  buf[n] = '\0';
  // Field 2 (comm) may contain spaces and parens; everything after the LAST
  // ')' is whitespace-separated, starting at field 3 (state). starttime is
  // field 22, i.e. the 20th token after the ')'.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0;
  ++p;
  unsigned long long value = 0;
  int field = 2;
  while (*p != '\0' && field < 22) {
    while (*p == ' ') ++p;
    const char* start = p;
    while (*p != '\0' && *p != ' ') ++p;
    ++field;
    if (field == 22) {
      value = std::strtoull(start, nullptr, 10);
      break;
    }
  }
  return static_cast<std::uint64_t>(value);
}

bool writer_alive(pid_t pid, std::uint64_t nonce) {
  if (pid <= 0) return false;
  if (::kill(pid, 0) != 0 && errno == ESRCH) return false;
  if (nonce == 0) return true;  // stamp unreadable at publish time: assume live
  const std::uint64_t current = process_start_nonce(pid);
  if (current == 0) return true;  // cannot read /proc now: assume live
  return current == nonce;        // mismatch = pid recycled, writer dead
}

Error publish_shm_region(const std::string& path,
                         const std::string& model_json,
                         const std::string& config_json) {
  OwnedFd region;
  region.fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (region.fd < 0) return io_error(path, "cannot open shm region");
  // Writers (publishers and healers) are serialised by an exclusive flock
  // that the kernel drops even on SIGKILL; readers never take it.
  if (::flock(region.fd, LOCK_EX | LOCK_NB) != 0) {
    return Error{ErrorCode::kUnavailable,
                 path + ": another publisher holds the region lock"};
  }

  // Read the previous header (if any) so the generation stays monotonic and
  // the live payload's extent can be avoided. A predecessor that crashed
  // mid-publish (odd generation) left its *previous*-payload descriptors as
  // the only trustworthy ones.
  ShmHeader old{};
  bool have_old = false;
  std::uint64_t old_total = 0;
  struct stat st{};
  if (::fstat(region.fd, &st) == 0 &&
      st.st_size >= static_cast<off_t>(kShmHeaderBytes)) {
    if (::pread(region.fd, &old, sizeof(old), 0) == sizeof(old) &&
        old.magic == kShmMagic) {
      have_old = true;
      old_total = static_cast<std::uint64_t>(st.st_size);
    }
  }

  std::uint64_t prev_generation = 0;
  Extent keep;  // the payload bytes that must survive this publish
  std::uint64_t keep_model_off = 0, keep_model_len = 0;
  std::uint64_t keep_config_off = 0, keep_config_len = 0;
  std::uint64_t base_generation = 0;
  if (have_old) {
    base_generation = old.generation;
    if ((old.generation & 1) == 0) {
      // Healthy region: the active payload becomes the heal target.
      keep = active_extent(old);
      keep_model_off = old.model_offset;
      keep_model_len = old.model_bytes;
      keep_config_off = old.config_offset;
      keep_config_len = old.config_bytes;
      prev_generation = old.generation;
    } else if (old.prev_generation != 0 && (old.prev_generation & 1) == 0) {
      // Crashed predecessor: its active descriptors may be torn; adopt the
      // previous complete payload instead.
      ShmHeader prev_view = old;
      prev_view.model_offset = old.prev_model_offset;
      prev_view.model_bytes = old.prev_model_bytes;
      prev_view.config_offset = old.prev_config_offset;
      prev_view.config_bytes = old.prev_config_bytes;
      keep = active_extent(prev_view);
      keep_model_off = old.prev_model_offset;
      keep_model_len = old.prev_model_bytes;
      keep_config_off = old.prev_config_offset;
      keep_config_len = old.prev_config_bytes;
      prev_generation = old.prev_generation;
    }
    // else: first publish crashed — nothing to keep, fresh start.
  }

  // Slot choice: the new payload goes wherever the kept payload is not.
  const std::uint64_t payload = model_json.size() + config_json.size();
  std::uint64_t slot = kShmHeaderBytes;
  if (keep.valid() && slot + payload > keep.begin) slot = keep.end;
  const std::uint64_t model_offset = slot;
  const std::uint64_t config_offset = model_offset + model_json.size();
  const std::uint64_t total =
      std::max(old_total, config_offset + config_json.size());

  if (::ftruncate(region.fd, static_cast<off_t>(total)) != 0) {
    return io_error(path, "cannot size shm region");
  }
  Mapping map;
  map.bytes = total;
  map.addr =
      ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, region.fd, 0);
  if (map.addr == MAP_FAILED) return io_error(path, "cannot map shm region");

  auto* header = static_cast<ShmHeader*>(map.addr);
  auto* bytes = static_cast<std::uint8_t*>(map.addr);

  // Phase 1 (generation still even): identity stamp and heal target. A
  // crash anywhere in here leaves the active descriptors untouched and the
  // generation even — the region stays fully serveable.
  header->magic = kShmMagic;
  header->header_bytes = kShmHeaderBytes;
  header->writer_pid = static_cast<std::uint64_t>(::getpid());
  header->writer_nonce = process_start_nonce(::getpid());
  header->prev_model_offset = keep_model_off;
  header->prev_model_bytes = keep_model_len;
  header->prev_config_offset = keep_config_off;
  header->prev_config_bytes = keep_config_len;
  header->prev_generation = prev_generation;
  header->reserved = 0;
  header->reserved2 = 0;

  // Phase 2: seqlock publish. Generation goes odd, the payload lands in the
  // free slot, the descriptors flip to it, generation goes even. Readers
  // double-check the counter, so the worst a concurrent attach can observe
  // is "retry"; a crash in here is healed from the prev_* fields.
  const std::uint64_t busy = base_generation | 1;
  generation_ref(header).store(busy, std::memory_order_release);
  failpoint::crash_if("shm-crash-mid-publish");

  std::memcpy(bytes + model_offset, model_json.data(), model_json.size());
  std::memcpy(bytes + config_offset, config_json.data(), config_json.size());
  header->model_offset = model_offset;
  header->model_bytes = model_json.size();
  header->config_offset = config_offset;
  header->config_bytes = config_json.size();
  header->total_bytes = total;
  failpoint::crash_if("shm-crash-before-commit");

  generation_ref(header).store(busy + 1, std::memory_order_release);
  return Error{};
}

Error heal_shm_region(const std::string& path) {
  OwnedFd region;
  region.fd = ::open(path.c_str(), O_RDWR);
  if (region.fd < 0) {
    return Error{ErrorCode::kNotFound, path + ": no shm region to heal"};
  }
  if (::flock(region.fd, LOCK_EX | LOCK_NB) != 0) {
    return Error{ErrorCode::kUnavailable,
                 path + ": region lock held (publisher or healer active)"};
  }
  struct stat st{};
  if (::fstat(region.fd, &st) != 0) {
    return io_error(path, "cannot stat shm region");
  }
  const auto mapped_bytes = static_cast<std::size_t>(st.st_size);
  if (mapped_bytes < kShmHeaderBytes) {
    return Error{ErrorCode::kParseError,
                 path + ": region smaller than its header (torn create?)"};
  }
  Mapping map;
  map.bytes = mapped_bytes;
  map.addr = ::mmap(nullptr, mapped_bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                    region.fd, 0);
  if (map.addr == MAP_FAILED) return io_error(path, "cannot map shm region");

  auto* header = static_cast<ShmHeader*>(map.addr);
  if (header->magic != kShmMagic) {
    return Error{ErrorCode::kValidationError,
                 path + ": bad shm magic (not an ADSALA region, or an "
                        "incompatible format version)"};
  }
  // Re-verify under the lock: a publisher may have finished (or a rival
  // healer run) between the caller's probe and our lock acquisition.
  const std::uint64_t g = generation_ref(header).load(std::memory_order_acquire);
  if ((g & 1) == 0) return Error{};  // healthy after all — nothing to do
  if (header->prev_generation == 0 || (header->prev_generation & 1) != 0 ||
      !descriptors_sane(header->prev_model_offset, header->prev_model_bytes,
                        header->prev_config_offset, header->prev_config_bytes,
                        mapped_bytes)) {
    return Error{ErrorCode::kUnavailable,
                 path + ": writer died during the first publish; no previous "
                        "payload to heal to"};
  }
  // Roll the descriptors back to the last complete payload and the
  // generation forward to the next even value. The crashed publisher wrote
  // its new bytes into the *other* slot, so these bytes are intact.
  header->model_offset = header->prev_model_offset;
  header->model_bytes = header->prev_model_bytes;
  header->config_offset = header->prev_config_offset;
  header->config_bytes = header->prev_config_bytes;
  header->writer_pid = 0;
  header->writer_nonce = 0;
  generation_ref(header).store(g + 1, std::memory_order_release);
  return Error{};
}

namespace {

/// Maps the whole file read-only at its current size, replacing whatever
/// `map` held before.
Error map_whole_region(int fd, const std::string& path, Mapping* map) {
  struct stat st{};
  if (::fstat(fd, &st) != 0) return io_error(path, "cannot stat shm region");
  const auto bytes = static_cast<std::size_t>(st.st_size);
  if (bytes < kShmHeaderBytes) {
    return Error{ErrorCode::kParseError,
                 path + ": region smaller than its header (torn create?)"};
  }
  if (map->addr != MAP_FAILED) ::munmap(map->addr, map->bytes);
  map->bytes = bytes;
  map->addr = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
  if (map->addr == MAP_FAILED) return io_error(path, "cannot map shm region");
  return Error{};
}

Expected<ShmArtefacts> read_shm_region_impl(const std::string& path,
                                            bool allow_heal) {
  OwnedFd region;
  region.fd = ::open(path.c_str(), O_RDONLY);
  if (region.fd < 0) {
    return Error{ErrorCode::kNotFound, path + ": no shm region"};
  }
  Mapping map;
  if (Error err = map_whole_region(region.fd, path, &map); !err.ok()) {
    return err;
  }
  // The magic (and the format version in its low byte) never changes after
  // creation, so it is checked outside the generation loop.
  if (static_cast<const ShmHeader*>(map.addr)->magic != kShmMagic) {
    return Error{ErrorCode::kValidationError,
                 path + ": bad shm magic (not an ADSALA region, or an "
                        "incompatible format version)"};
  }
  // atomic_ref wants a mutable lvalue even for pure loads; the mapping is
  // PROT_READ, and only load() is ever called through this view. The
  // header is re-derived on every use because a remap moves it.
  auto header = [&map] { return static_cast<ShmHeader*>(map.addr); };
  auto generation = [&header] {
    return generation_ref(header()).load(std::memory_order_acquire);
  };

  // The outer rounds absorb benign races with OTHER processes repairing the
  // region under our feet: a rival reader can heal a dead writer's region
  // (flipping the counter even) or hold the writer flock for the
  // microseconds its heal takes, exactly while this reader's seqlock budget
  // runs out. One more round then reads the healthy region; without it this
  // reader would report a transient error for a region that is fine.
  for (int round = 0; round < 4; ++round) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::uint64_t g1 = generation();
      if (failpoint::triggered("shm-mid-swap")) g1 |= 1;  // forced mid-swap
      if (g1 & 1) {
        ::sched_yield();
        continue;
      }
      const std::uint64_t model_off = header()->model_offset;
      const std::uint64_t model_len = header()->model_bytes;
      const std::uint64_t config_off = header()->config_offset;
      const std::uint64_t config_len = header()->config_bytes;
      if (!descriptors_sane(model_off, model_len, config_off, config_len,
                            map.bytes)) {
        // Out-of-bounds descriptors are damage only when they belong to
        // the generation read above and lie past the file as it is NOW. A
        // publisher may have started since (it flips the descriptors while
        // the generation is odd), or committed a payload into space it
        // grew the file by after this mapping was made.
        if (generation() != g1) continue;  // torn read: retry
        const std::size_t mapped_bytes = map.bytes;
        if (Error err = map_whole_region(region.fd, path, &map); !err.ok()) {
          return err;
        }
        if (map.bytes > mapped_bytes) continue;  // grown: re-read
        return Error{ErrorCode::kParseError,
                     path + ": payload bounds fall outside the region"};
      }
      const auto* bytes = static_cast<const std::uint8_t*>(map.addr);
      ShmArtefacts out;
      out.model_json.assign(reinterpret_cast<const char*>(bytes + model_off),
                            model_len);
      out.config_json.assign(reinterpret_cast<const char*>(bytes + config_off),
                             config_len);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (generation() != g1) continue;  // torn
      out.generation = g1;
      return out;
    }

    // Retry budget exhausted. Re-load the raw counter: when it is actually
    // even, either the odd observations were injected (shm-mid-swap
    // failpoint) — the classic "caught mid-swap" report stands and there is
    // nothing to heal — or the region just turned healthy (a publisher
    // committed, or a rival healer repaired it) and the next round reads it.
    const std::uint64_t raw = generation();
    if ((raw & 1) == 0) {
      if (failpoint::triggered("shm-mid-swap")) break;
      continue;
    }
    if (!allow_heal) break;

    // Genuinely stuck odd: probe the stamped writer. A live publisher gets
    // the benefit of the doubt (kUnavailable, retry later); a dead one left
    // a tombstone — heal and re-read.
    const auto pid = static_cast<pid_t>(header()->writer_pid);
    const std::uint64_t nonce = header()->writer_nonce;
    if (writer_alive(pid, nonce)) {
      return Error{ErrorCode::kUnavailable,
                   path + ": publisher pid " + std::to_string(pid) +
                       " is mid-publish; retry later"};
    }
    const Error healed = heal_shm_region(path);
    if (healed.ok()) continue;  // healed (by us or a rival) — re-read
    if (healed.code == ErrorCode::kUnavailable &&
        header()->prev_generation != 0 &&
        (header()->prev_generation & 1) == 0) {
      // The tombstone is healable, so the kUnavailable can only mean the
      // flock is held by a rival healer (or a fresh publisher) that leaves
      // the region healthy behind it. Give it a beat and re-read.
      timespec pause{0, 1000000};  // 1 ms
      ::nanosleep(&pause, nullptr);
      continue;
    }
    return healed;  // unhealable (first-publish crash) or a real I/O error
  }
  return Error{ErrorCode::kUnavailable,
               path + ": generation counter caught mid-swap (publisher "
                      "active or crashed mid-publish); retry later"};
}

}  // namespace

Expected<ShmArtefacts> read_shm_region(const std::string& path) {
  return read_shm_region_impl(path, /*allow_heal=*/true);
}

}  // namespace adsala::core
