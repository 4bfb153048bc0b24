/* LD_PRELOAD sampling profiler for hosts without `perf`.
 *
 * Arms ITIMER_PROF at load; on every SIGPROF the handler records the
 * interrupted instruction pointer and walks the frame-pointer chain from
 * the signal's ucontext (so the profiled program must be built with
 * `-C force-frame-pointers=yes`). At exit it writes, to `$SIGPROF_OUT.<pid>`
 * (default `sigprof.<pid>`), one line of hex addresses per sample — the
 * instruction pointer, the word at the stack pointer (the return address
 * if the sample fell in a frameless leaf such as libc's memcmp, which the
 * frame-pointer chain would skip the caller of), then the chain's return
 * addresses, innermost first — followed by where libc's IFUNC'd string
 * functions resolved to (their implementations have no exported name),
 * the executable's path and `/proc/self/maps`; symbolize.py reads that.
 *
 * Only the main thread's stack is walked (other threads contribute their
 * instruction pointer alone; each handler reserves its record atomically,
 * so concurrent ones do not interleave); x86-64 Linux only.
 *
 *   gcc -O2 -shared -fPIC -o libsigprof.so sigprof.c
 *   SIGPROF_OUT=prof LD_PRELOAD=./libsigprof.so ./program
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define HZ 250
#define MAX_DEPTH 64
#define RECORD (1 + MAX_DEPTH) /* depth, then the addresses */
#define MAX_WORDS (8u << 20)   /* 64 MiB of untouched .bss until sampled into */

extern char **environ;

static uintptr_t words[MAX_WORDS];
static size_t used;
static uintptr_t stack_lo, stack_hi;

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    const ucontext_t *uc = context;
    size_t at = __atomic_fetch_add(&used, RECORD, __ATOMIC_RELAXED);
    if (at + RECORD > MAX_WORDS) return;
    uintptr_t *sample = &words[at + 1];
    size_t depth = 0;
    sample[depth++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    sample[depth++] = 0;
    if (sp >= stack_lo && sp + 8 <= stack_hi && sp % 8 == 0) {
        sample[1] = *(const uintptr_t *)sp;
        /* A frame is {saved rbp, return address}; frames only move up. */
        while (depth < MAX_DEPTH && fp >= sp && fp + 16 <= stack_hi && fp % 8 == 0) {
            const uintptr_t *frame = (const uintptr_t *)fp;
            if (frame[1] < 4096) break;
            sample[depth++] = frame[1];
            if (frame[0] <= fp) break;
            fp = frame[0];
        }
    }
    words[at] = depth; /* last: a record without it dumps as an empty line */
}

__attribute__((constructor)) static void sigprof_start(void) {
    /* The environment block sits above every frame of the main thread. */
    struct rlimit lim;
    stack_hi = (uintptr_t)environ;
    stack_lo = stack_hi - (64u << 20);
    if (getrlimit(RLIMIT_STACK, &lim) == 0 && lim.rlim_cur != RLIM_INFINITY)
        stack_lo = stack_hi - lim.rlim_cur;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1000000 / HZ}, {0, 1000000 / HZ}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void sigprof_dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *prefix = getenv("SIGPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "sigprof", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) return;
    for (size_t at = 0; at + RECORD <= MAX_WORDS && at < used; at += RECORD) {
        for (size_t i = 1; i <= words[at]; i++)
            fprintf(out, "%s%lx", i > 1 ? " " : "", (unsigned long)words[at + i]);
        fputc('\n', out);
    }
    static const char *const ifuncs[] = {"memcmp", "memcpy", "memmove", "memset", "memchr", "strlen"};
    for (size_t i = 0; i < sizeof ifuncs / sizeof *ifuncs; i++)
        fprintf(out, "SYM %s %lx\n", ifuncs[i], (unsigned long)dlsym(RTLD_DEFAULT, ifuncs[i]));
    char exe[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    fprintf(out, "EXE %.*s\nMAPS\n", n > 0 ? (int)n : 0, exe);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;) fputc(c, out);
    if (maps) fclose(maps);
    fclose(out);
}
