/* LD_PRELOAD allocation-site sampler, the allocator's counterpart of
 * sigprof.c: glibc's malloc keeps no frame pointers, so a SIGPROF sample
 * that lands in it cannot say which code asked for the memory.
 *
 * Wraps malloc, calloc, realloc, posix_memalign, aligned_alloc and
 * memalign (each calls glibc's own entry point). Every EVERY-th allocation
 * walks the frame-pointer chain of its caller (so the program must be built
 * with `-C force-frame-pointers=yes`) and counts that stack. Blocks of BIG
 * bytes or more have their stacks walked too, though they are counted only
 * when their turn comes. Each walked block is tracked until it is freed,
 * standing for its own bytes if big and for EVERY times them if not, and
 * whenever the bytes live in the whole heap pass the last snapshot by
 * STEP, what the tracked blocks stand for is snapshotted per stack: the
 * last snapshot is the heap's peak to within STEP.
 *
 * At exit it writes two captures in sigprof.c's format, which
 * symbolize.py reads: `$ALLOCSAMPLE_OUT.<pid>` (default
 * `allocsample.<pid>`), one line per sampled stack weighted by how many
 * allocations it made, and `$ALLOCSAMPLE_OUT.peak.<pid>`, weighted by the
 * bytes its blocks stood for at the peak. A line is `=<weight>`, the
 * address of the wrapper that was called (its exported name is the leaf),
 * a zero, then the chain's return addresses, innermost first.
 *
 * Only the main thread's stack is walked (a sample on another thread keeps
 * the wrapper's own caller alone). Both tables stay at most half full:
 * stacks past MAX_STACKS / 2 distinct ones and tracked blocks past
 * MAX_BLOCKS / 2 live ones are counted as dropped, and the capture says how
 * many; x86-64 Linux with glibc only.
 *
 *   gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o liballocsample.so allocsample.c
 *   ALLOCSAMPLE_OUT=alloc LD_PRELOAD=./liballocsample.so ./program
 */
#define _GNU_SOURCE
#include <errno.h>
#include <malloc.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <unistd.h>

#define EVERY 61                /* a prime: no lockstep with periodic allocation patterns */
#define BIG 4096                /* bytes: blocks this large are all tracked */
#define STEP (1u << 20)         /* peak snapshot granularity, bytes */
#define MAX_DEPTH 64
#define MAX_STACKS (1u << 15)   /* stack table slots (a power of two) */
#define MAX_BLOCKS (1u << 21)   /* tracked-block table slots (a power of two) */

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);
extern char **environ;

struct stack {
    uint64_t hash;
    uint64_t allocs;           /* sampled allocations made here */
    uint64_t live, peak;       /* bytes its tracked blocks stand for: now, at the last snapshot */
    uint32_t depth;
    uintptr_t pc[MAX_DEPTH];   /* the wrapper, then return addresses */
};

struct block {
    uintptr_t ptr;             /* 0: empty */
    uint32_t stack;
    size_t bytes;              /* what it stands for */
};

static struct stack stacks[MAX_STACKS];
static struct block blocks[MAX_BLOCKS];
static uint32_t used_stacks, used_blocks;
static uint64_t calls, dropped_stacks, dropped_blocks;
static size_t live_bytes, snap_bytes;
static uintptr_t stack_lo, stack_hi;
static volatile int lock;
static __thread int busy;      /* inside the sampler or its dump: pass through */

static void acquire(void) {
    while (__atomic_exchange_n(&lock, 1, __ATOMIC_ACQUIRE)) {}
}

static void release(void) {
    __atomic_store_n(&lock, 0, __ATOMIC_RELEASE);
}

static uint64_t mix(uint64_t h, uint64_t x) {
    h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h * 0xbf58476d1ce4e5b9ull;
}

/* The stack's slot, found or claimed; MAX_STACKS when the table is full. */
static uint32_t stack_slot(const uintptr_t *pc, uint32_t depth) {
    uint64_t h = depth;
    for (uint32_t i = 0; i < depth; i++) h = mix(h, pc[i]);
    h |= 1;
    for (uint32_t probe = 0, at = h & (MAX_STACKS - 1); probe < MAX_STACKS;
         probe++, at = (at + 1) & (MAX_STACKS - 1)) {
        struct stack *s = &stacks[at];
        if (s->hash == h && s->depth == depth && !memcmp(s->pc, pc, depth * sizeof *pc))
            return at;
        if (s->hash == 0) {
            if (used_stacks >= MAX_STACKS / 2) break; /* keep probes short */
            used_stacks++;
            s->hash = h;
            s->depth = depth;
            memcpy(s->pc, pc, depth * sizeof *pc);
            return at;
        }
    }
    dropped_stacks++;
    return MAX_STACKS;
}

/* Linear probing, at most half full, with no tombstones: a removal shifts
 * the rest of its run back, so every probe ends at an empty slot. */
static uint32_t block_home(uintptr_t ptr) {
    return mix(0, ptr) & (MAX_BLOCKS - 1);
}

/* The block's slot, or the empty slot where it would go. */
static uint32_t block_slot(uintptr_t ptr) {
    uint32_t at = block_home(ptr);
    while (blocks[at].ptr && blocks[at].ptr != ptr) at = (at + 1) & (MAX_BLOCKS - 1);
    return at;
}

static void block_remove(uint32_t hole) {
    for (uint32_t next = (hole + 1) & (MAX_BLOCKS - 1); blocks[next].ptr;
         next = (next + 1) & (MAX_BLOCKS - 1)) {
        /* The entry at `next` may fill the hole if its home is not
         * (cyclically) between the hole and it. */
        uint32_t home = block_home(blocks[next].ptr);
        if (((next - home) & (MAX_BLOCKS - 1)) >= ((next - hole) & (MAX_BLOCKS - 1))) {
            blocks[hole] = blocks[next];
            hole = next;
        }
    }
    blocks[hole].ptr = 0;
    used_blocks--;
}

static void snapshot(void) {
    for (uint32_t i = 0; i < MAX_STACKS; i++) stacks[i].peak = stacks[i].live;
    snap_bytes = live_bytes;
}

/* Accounts a block leaving the heap (free, or the old side of a realloc). */
static void forget(void *ptr) {
    if (!ptr || busy) return;
    acquire();
    size_t size = malloc_usable_size(ptr);
    /* A block from before the sampler could count (none in practice). */
    live_bytes -= size < live_bytes ? size : live_bytes;
    uint32_t at = block_slot((uintptr_t)ptr);
    if (blocks[at].ptr) {
        stacks[blocks[at].stack].live -= blocks[at].bytes;
        block_remove(at);
    }
    release();
}

/* Accounts a new block; `wrapper` is the function the program called. */
static void note(void *ptr, void *wrapper, uintptr_t fp) {
    if (!ptr || busy) return;
    busy = 1;
    acquire();
    size_t size = malloc_usable_size(ptr);
    live_bytes += size;
    int sampled = ++calls % EVERY == 0;
    if (sampled || size >= BIG) {
        uintptr_t pc[MAX_DEPTH];
        uint32_t depth = 0;
        pc[depth++] = (uintptr_t)wrapper;
        pc[depth++] = 0;
        uintptr_t here = (uintptr_t)&pc;
        int main_stack = here >= stack_lo && here < stack_hi;
        /* A frame is {saved rbp, return address}; frames only move up. */
        while (depth < MAX_DEPTH && fp >= here && fp + 16 <= stack_hi && fp % 8 == 0) {
            const uintptr_t *frame = (const uintptr_t *)fp;
            if (frame[1] < 4096) break;
            pc[depth++] = frame[1];
            if (!main_stack || frame[0] <= fp) break;
            fp = frame[0];
        }
        uint32_t s = stack_slot(pc, depth);
        if (s < MAX_STACKS) {
            stacks[s].allocs += sampled;
            size_t bytes = size >= BIG ? size : size * EVERY;
            uint32_t at = block_slot((uintptr_t)ptr);
            if (blocks[at].ptr) {
                /* Freed behind the sampler's back (while it was busy). */
                stacks[blocks[at].stack].live -= blocks[at].bytes;
            } else if (used_blocks < MAX_BLOCKS / 2) {
                used_blocks++;
            } else {
                dropped_blocks++;
                at = MAX_BLOCKS;
            }
            if (at < MAX_BLOCKS) {
                stacks[s].live += bytes;
                blocks[at] = (struct block){(uintptr_t)ptr, s, bytes};
            }
        }
    }
    if (live_bytes >= snap_bytes + STEP) snapshot();
    release();
    busy = 0;
}

#define CALLER_FP ((uintptr_t)__builtin_frame_address(0))

void *malloc(size_t size) {
    void *p = __libc_malloc(size);
    note(p, (void *)malloc, CALLER_FP);
    return p;
}

void *calloc(size_t n, size_t size) {
    void *p = __libc_calloc(n, size);
    note(p, (void *)calloc, CALLER_FP);
    return p;
}

void *realloc(void *old, size_t size) {
    forget(old);
    void *p = __libc_realloc(old, size);
    if (!p && old && size) {
        /* Failed: the old block is still there. */
        if (!busy) {
            acquire();
            live_bytes += malloc_usable_size(old);
            release();
        }
        return p;
    }
    note(p, (void *)realloc, CALLER_FP);
    return p;
}

void *memalign(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    note(p, (void *)memalign, CALLER_FP);
    return p;
}

void *aligned_alloc(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    note(p, (void *)aligned_alloc, CALLER_FP);
    return p;
}

int posix_memalign(void **out, size_t align, size_t size) {
    if (align % sizeof(void *) || (align & (align - 1))) return EINVAL;
    void *p = __libc_memalign(align, size);
    if (!p) return ENOMEM;
    note(p, (void *)posix_memalign, CALLER_FP);
    *out = p;
    return 0;
}

void free(void *ptr) {
    forget(ptr);
    __libc_free(ptr);
}

__attribute__((constructor)) static void allocsample_start(void) {
    /* The environment block sits above every frame of the main thread. */
    struct rlimit lim;
    stack_hi = (uintptr_t)environ;
    stack_lo = stack_hi - (64u << 20);
    if (getrlimit(RLIMIT_STACK, &lim) == 0 && lim.rlim_cur != RLIM_INFINITY)
        stack_lo = stack_hi - lim.rlim_cur;
}

static void dump(const char *path, int peak) {
    FILE *out = fopen(path, "w");
    if (!out) return;
    fprintf(out, "UNIT %s\n", peak ? "bytes live at the peak (estimated)" : "sampled allocations");
    for (uint32_t i = 0; i < MAX_STACKS; i++) {
        const struct stack *s = &stacks[i];
        uint64_t weight = peak ? s->peak : s->allocs;
        if (!s->hash || !weight) continue;
        fprintf(out, "=%llu", (unsigned long long)weight);
        for (uint32_t d = 0; d < s->depth; d++) fprintf(out, " %lx", (unsigned long)s->pc[d]);
        fputc('\n', out);
    }
    fprintf(out, "NOTE 1 in %d of %llu allocations sampled, blocks of %d bytes or more "
            "tracked; peak heap %zu bytes (+%u); dropped: %llu stacks, %llu blocks\n", EVERY,
            (unsigned long long)calls, BIG, snap_bytes, STEP, (unsigned long long)dropped_stacks,
            (unsigned long long)dropped_blocks);
    char exe[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    fprintf(out, "EXE %.*s\nMAPS\n", n > 0 ? (int)n : 0, exe);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;) fputc(c, out);
    if (maps) fclose(maps);
    fclose(out);
}

__attribute__((destructor)) static void allocsample_dump(void) {
    busy = 1;
    const char *prefix = getenv("ALLOCSAMPLE_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "allocsample", (int)getpid());
    dump(path, 0);
    snprintf(path, sizeof path, "%s.peak.%d", prefix ? prefix : "allocsample", (int)getpid());
    dump(path, 1);
}
