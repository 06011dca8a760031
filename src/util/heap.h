// Returning freed heap memory to the operating system.
//
// glibc's malloc keeps one arena per thread that allocates, and an arena
// keeps the pages its freed blocks occupied: after a mapping job, the
// megabyte-sized measurement-plan and decode tables it freed stay resident
// in the arena of whichever thread ran it, and an arena outlives its
// thread. A process that runs job batches back to back therefore holds one
// job's worth of dead tables per arena that has ever run one, and how many
// arenas that is depends on scheduling.
#pragma once

#include <cstdlib>  // defines __GLIBC__ on glibc

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace dramdig {

/// Hand the pages of freed heap blocks in every malloc arena back to the
/// OS. Costs a walk of the arenas' free lists; call it between batches of
/// work, not inside one. A no-op where the C library has no equivalent.
inline void release_free_heap() noexcept {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace dramdig
