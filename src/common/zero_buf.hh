/**
 * @file
 * Lazily-zeroed flat buffer for large, sparsely-touched tables.
 *
 * `std::vector<T>(n)` value-initialises every element eagerly; for a
 * multi-megabyte cache tag array that memset is the dominant cost of
 * constructing a core, and a short run never touches most of it.
 * ZeroBuf hands out zero pages instead, so untouched sets cost nothing
 * and the kernel zeroes only the pages the run actually faults in.
 * Every buffer is an anonymous mapping of its own: calloc only skips
 * its memset for memory fresh from the kernel, and a recycled heap (a
 * thread pool's arenas, a long-lived process) would make every table
 * resident at construction. clear() hands the pages back, so a reused
 * owner is as lazy as a new one.
 *
 * The element type must be trivially copyable/destructible and must
 * treat the all-zero-bytes state as its initial state (asserted where
 * checkable; the zero-state contract is the caller's).
 */

#ifndef DLVP_COMMON_ZERO_BUF_HH
#define DLVP_COMMON_ZERO_BUF_HH

#include <sys/mman.h>

#include <cstring>
#include <type_traits>
#include <utility>

#include "common/run_error.hh"

namespace dlvp::common
{

template <typename T>
class ZeroBuf
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ZeroBuf skips element construction/destruction");

  public:
    ZeroBuf() = default;

    explicit ZeroBuf(std::size_t n) { reset(n); }

    ZeroBuf(ZeroBuf &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0))
    {
    }

    ZeroBuf &
    operator=(ZeroBuf &&o) noexcept
    {
        if (this != &o) {
            release();
            data_ = std::exchange(o.data_, nullptr);
            size_ = std::exchange(o.size_, 0);
        }
        return *this;
    }

    ZeroBuf(const ZeroBuf &) = delete;
    ZeroBuf &operator=(const ZeroBuf &) = delete;

    ~ZeroBuf() { release(); }

    /** Drop the old buffer and allocate @p n zeroed elements. */
    void
    reset(std::size_t n)
    {
        release();
        if (n == 0)
            return;
        void *p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw RunError(ErrorKind::Oom, "ZeroBuf mapping failed");
        data_ = static_cast<T *>(p);
        size_ = n;
    }

    /**
     * Zero every element, keeping the buffer. The pages go back to the
     * kernel (Linux refills private anonymous pages with zeroes on the
     * next touch), so only what the next run touches becomes resident
     * again.
     */
    void
    clear()
    {
        if (data_ == nullptr)
            return;
#ifdef __linux__
        if (madvise(data_, size_ * sizeof(T), MADV_DONTNEED) == 0)
            return;
#endif
        std::memset(static_cast<void *>(data_), 0, size_ * sizeof(T));
    }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    T *data() { return data_; }
    const T *data() const { return data_; }
    std::size_t size() const { return size_; }

  private:
    T *data_ = nullptr;
    std::size_t size_ = 0;

    void
    release()
    {
        if (data_ != nullptr)
            munmap(data_, size_ * sizeof(T));
        data_ = nullptr;
        size_ = 0;
    }
};

} // namespace dlvp::common

#endif // DLVP_COMMON_ZERO_BUF_HH
