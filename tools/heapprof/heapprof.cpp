// heapprof: an LD_PRELOAD allocation-site heap profiler.
//
//   HEAPPROF_OUT=prof.txt LD_PRELOAD=libheapprof.so ./program args...
//   python3 tools/heapprof/heapprof_report.py prof.txt
//
// It interposes malloc/calloc/realloc/free and the aligned allocators (the
// default operator new/delete reach them too; valloc, pvalloc and
// reallocarray are not interposed), records the call stack of every
// allocation, and keeps each call stack's live bytes. Whenever the live
// total climbs a step (1/256 of itself, at least 64 KiB) above the last
// snapshot, it snapshots every site's live bytes, so the snapshot it writes
// at exit is the heap within one step of its peak. The output is text: a
// header, one `site <bytes> <allocs> <ip>...` line per call stack live in
// that snapshot, then the process's /proc/self/maps, which the report
// script needs to turn return addresses into source lines.
//
// Live bytes are the bytes requested, not the allocator's footprint, and
// its own tables live in mmap'd memory it never counts. Threads are
// supported through one spinlock (the simulator is single-threaded).
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#include <unwind.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

extern "C" {
void* __libc_malloc(std::size_t);
void* __libc_calloc(std::size_t, std::size_t);
void* __libc_realloc(void*, std::size_t);
void* __libc_memalign(std::size_t, std::size_t);
void __libc_free(void*);
}

namespace {

// Frames kept per call stack, the profiler's own innermost ones included
// (the report script drops those).
constexpr int kMaxDepth = 28;

struct Site {
  std::uint64_t hash;
  std::int64_t live;
  std::int64_t snap;
  std::uint64_t live_count;
  std::uint64_t snap_count;
  int depth;
  void* ips[kMaxDepth];
};

struct Alloc {
  std::uintptr_t ptr;  // 0 = empty slot
  std::uint32_t site;
  std::uint32_t size;  // requests of 4 GiB or more saturate
};

void* map_zeroed(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) abort();
  return p;
}

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

// ---- state (all in mmap'd memory, guarded by `lock`) -------------------------

std::atomic_flag lock = ATOMIC_FLAG_INIT;
thread_local bool in_hook __attribute__((tls_model("initial-exec"))) = false;

Site* sites = nullptr;  // id 0 stays unused: site_index marks empty slots with 0
std::uint32_t site_count = 0;
std::uint32_t site_cap = 0;
std::uint32_t* site_index = nullptr;  // open addressing over site ids; 0 = empty
std::uint64_t site_index_cap = 0;

Alloc* allocs = nullptr;
std::uint64_t alloc_cap = 0;
std::uint64_t alloc_used = 0;

std::int64_t live_total = 0;
std::int64_t peak_total = 0;
std::int64_t snap_total = 0;
std::uint64_t total_allocs = 0;

void snapshot() {
  for (std::uint32_t i = 0; i < site_count; ++i) {
    sites[i].snap = sites[i].live;
    sites[i].snap_count = sites[i].live_count;
  }
  snap_total = live_total;
}

// ---- sites -------------------------------------------------------------------

struct Trace {
  void* ips[kMaxDepth];
  int n = 0;
};

_Unwind_Reason_Code collect(_Unwind_Context* ctx, void* arg) {
  Trace* t = static_cast<Trace*>(arg);
  if (t->n >= kMaxDepth) return _URC_END_OF_STACK;
  t->ips[t->n++] = reinterpret_cast<void*>(_Unwind_GetIP(ctx));
  return _URC_NO_REASON;
}

void grow_sites() {
  const std::uint32_t cap = site_cap == 0 ? 4096 : site_cap * 2;
  Site* next = static_cast<Site*>(map_zeroed(sizeof(Site) * cap));
  if (sites != nullptr) {
    std::memcpy(next, sites, sizeof(Site) * site_count);
    munmap(sites, sizeof(Site) * site_cap);
  }
  sites = next;
  site_cap = cap;

  const std::uint64_t icap = std::uint64_t{cap} * 2;
  auto* index = static_cast<std::uint32_t*>(map_zeroed(sizeof(std::uint32_t) * icap));
  for (std::uint32_t id = 1; id < site_count; ++id) {
    std::uint64_t h = sites[id].hash & (icap - 1);
    while (index[h] != 0) h = (h + 1) & (icap - 1);
    index[h] = id;
  }
  if (site_index != nullptr) munmap(site_index, sizeof(std::uint32_t) * site_index_cap);
  site_index = index;
  site_index_cap = icap;
}

std::uint32_t site_of_caller() {
  Trace t;
  _Unwind_Backtrace(collect, &t);
  const int depth = t.n;
  void* const* ips = t.ips;
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < depth; ++i) h = mix(h ^ reinterpret_cast<std::uintptr_t>(ips[i]));
  if (h == 0) h = 1;

  if (site_count == 0) {
    grow_sites();
    site_count = 1;
  }
  std::uint64_t slot = h & (site_index_cap - 1);
  while (std::uint32_t id = site_index[slot]) {
    const Site& s = sites[id];
    if (s.hash == h && s.depth == depth &&
        std::memcmp(s.ips, ips, sizeof(void*) * static_cast<std::size_t>(depth)) == 0) {
      return id;
    }
    slot = (slot + 1) & (site_index_cap - 1);
  }
  if (site_count == site_cap) {
    grow_sites();
    slot = h & (site_index_cap - 1);
    while (site_index[slot] != 0) slot = (slot + 1) & (site_index_cap - 1);
  }
  const std::uint32_t id = site_count++;
  Site& s = sites[id];
  s.hash = h;
  s.depth = depth;
  std::memcpy(s.ips, ips, sizeof(void*) * static_cast<std::size_t>(depth));
  site_index[slot] = id;
  return id;
}

// ---- live allocations (linear probing, backward-shift deletion) --------------

std::uint64_t home(std::uintptr_t p, std::uint64_t cap) { return mix(p) & (cap - 1); }

void insert_alloc(Alloc* table, std::uint64_t cap, const Alloc& a) {
  std::uint64_t i = home(a.ptr, cap);
  while (table[i].ptr != 0) i = (i + 1) & (cap - 1);
  table[i] = a;
}

void grow_allocs() {
  const std::uint64_t cap = alloc_cap == 0 ? (std::uint64_t{1} << 16) : alloc_cap * 2;
  Alloc* next = static_cast<Alloc*>(map_zeroed(sizeof(Alloc) * cap));
  for (std::uint64_t i = 0; i < alloc_cap; ++i) {
    if (allocs[i].ptr != 0) insert_alloc(next, cap, allocs[i]);
  }
  if (allocs != nullptr) munmap(allocs, sizeof(Alloc) * alloc_cap);
  allocs = next;
  alloc_cap = cap;
}

void record(void* p, std::size_t size) {
  if (p == nullptr) return;
  const std::uint32_t site = site_of_caller();
  if ((alloc_used + 1) * 10 > alloc_cap * 7) grow_allocs();
  const auto clamped = static_cast<std::uint32_t>(size > 0xffffffffu ? 0xffffffffu : size);
  insert_alloc(allocs, alloc_cap, {reinterpret_cast<std::uintptr_t>(p), site, clamped});
  ++alloc_used;
  ++total_allocs;
  sites[site].live += clamped;
  ++sites[site].live_count;
  live_total += clamped;
  if (live_total > peak_total) peak_total = live_total;
  const std::int64_t step = snap_total / 256 > (64 << 10) ? snap_total / 256 : (64 << 10);
  if (live_total >= snap_total + step) snapshot();
}

void forget(void* p) {
  if (p == nullptr || alloc_cap == 0) return;
  const auto key = reinterpret_cast<std::uintptr_t>(p);
  std::uint64_t i = home(key, alloc_cap);
  while (allocs[i].ptr != key) {
    if (allocs[i].ptr == 0) return;  // not ours: allocated before the hooks
    i = (i + 1) & (alloc_cap - 1);
  }
  Site& s = sites[allocs[i].site];
  s.live -= allocs[i].size;
  --s.live_count;
  live_total -= allocs[i].size;
  --alloc_used;
  // Backward-shift deletion keeps every probe chain unbroken.
  std::uint64_t hole = i;
  for (std::uint64_t j = (i + 1) & (alloc_cap - 1); allocs[j].ptr != 0;
       j = (j + 1) & (alloc_cap - 1)) {
    const std::uint64_t h = home(allocs[j].ptr, alloc_cap);
    const bool movable = hole <= j ? (h <= hole || h > j) : (h <= hole && h > j);
    if (movable) {
      allocs[hole] = allocs[j];
      hole = j;
    }
  }
  allocs[hole].ptr = 0;
}

// ---- hooks --------------------------------------------------------------------

struct Guard {
  bool active;
  Guard() : active(!in_hook) {
    if (!active) return;
    in_hook = true;
    while (lock.test_and_set(std::memory_order_acquire)) continue;
  }
  ~Guard() {
    if (!active) return;
    lock.clear(std::memory_order_release);
    in_hook = false;
  }
};

// ---- output -------------------------------------------------------------------

void put(int fd, const char* s, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, s, n);
    if (w <= 0) return;
    s += w;
    n -= static_cast<std::size_t>(w);
  }
}

void dump() {
  const char* path = std::getenv("HEAPPROF_OUT");
  char fallback[64];
  if (path == nullptr || *path == '\0') {
    std::snprintf(fallback, sizeof fallback, "heapprof.%d.txt", static_cast<int>(getpid()));
    path = fallback;
  }
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  char line[64 + kMaxDepth * 20];
  const auto header = [&](const char* key, long long value) {
    const int n = std::snprintf(line, sizeof line, "%s %lld\n", key, value);
    put(fd, line, static_cast<std::size_t>(n));
  };
  put(fd, "heapprof 1\n", 11);
  header("peak_bytes", peak_total);
  header("snapshot_bytes", snap_total);
  header("total_allocs", static_cast<long long>(total_allocs));
  for (std::uint32_t id = 0; id < site_count; ++id) {
    const Site& s = sites[id];
    if (s.snap <= 0) continue;
    const auto bytes = static_cast<long long>(s.snap);
    const auto count = static_cast<unsigned long long>(s.snap_count);
    int n = std::snprintf(line, sizeof line, "site %lld %llu", bytes, count);
    for (int d = 0; d < s.depth; ++d) {
      n += std::snprintf(line + n, sizeof line - static_cast<std::size_t>(n), " %p", s.ips[d]);
    }
    line[n++] = '\n';
    put(fd, line, static_cast<std::size_t>(n));
  }
  put(fd, "maps\n", 5);
  const int maps = ::open("/proc/self/maps", O_RDONLY);
  if (maps >= 0) {
    char buf[4096];
    for (ssize_t r; (r = ::read(maps, buf, sizeof buf)) > 0;) {
      put(fd, buf, static_cast<std::size_t>(r));
    }
    ::close(maps);
  }
  ::close(fd);
}

__attribute__((destructor)) void heapprof_fini() {
  Guard g;
  if (!g.active) return;
  dump();
}

}  // namespace

extern "C" {

void* malloc(std::size_t size) noexcept {
  Guard g;
  void* p = __libc_malloc(size);
  if (g.active) record(p, size);
  return p;
}

void* calloc(std::size_t n, std::size_t size) noexcept {
  Guard g;
  void* p = __libc_calloc(n, size);
  if (g.active) record(p, n * size);
  return p;
}

void* realloc(void* old, std::size_t size) noexcept {
  Guard g;
  void* p = __libc_realloc(old, size);
  // A failed realloc leaves `old` allocated; otherwise it is gone.
  if (g.active && (p != nullptr || size == 0)) {
    forget(old);
    record(p, size);
  }
  return p;
}

void free(void* p) noexcept {
  Guard g;
  if (g.active) forget(p);
  __libc_free(p);
}

void* memalign(std::size_t align, std::size_t size) noexcept {
  Guard g;
  void* p = __libc_memalign(align, size);
  if (g.active) record(p, size);
  return p;
}

void* aligned_alloc(std::size_t align, std::size_t size) noexcept {
  Guard g;
  void* p = __libc_memalign(align, size);
  if (g.active) record(p, size);
  return p;
}

int posix_memalign(void** out, std::size_t align, std::size_t size) noexcept {
  if (align % sizeof(void*) != 0 || (align & (align - 1)) != 0) return EINVAL;
  Guard g;
  void* p = __libc_memalign(align, size);
  if (p == nullptr) return ENOMEM;
  if (g.active) record(p, size);
  *out = p;
  return 0;
}

}  // extern "C"
