/* taco_kernel.h — runtime prelude for kernels emitted by taco-llir.
 *
 * Two dialects of C share this header:
 *
 *  1. The *display* dialect produced by Kernel::to_c(): paper-style
 *     listings (int32_t indices, #pragma omp, taco_ws_map workspaces).
 *     The prelude makes those listings parse and compile as C99.
 *
 *  2. The *native* dialect produced by the native-backend emitter: a
 *     single `int32_t taco_kernel_entry(taco_ctx* ctx)` function against
 *     the table-based `taco_ctx` ABI below, compiled to a shared object and dlopen'd by
 *     taco-native. All memory is host-owned; the kernel asks the host to
 *     (re)allocate through callbacks so budget accounting stays on the
 *     host side of the boundary. The emitter defines TACO_NATIVE_TU ahead
 *     of this header, which then leaves out the display dialect and the
 *     three libc headers only it needs whole.
 */
#ifndef TACO_KERNEL_H
#define TACO_KERNEL_H

#include <stdint.h>
#include <stdbool.h>

#ifdef TACO_NATIVE_TU

/* The native dialect calls five libc functions. Declaring them (C11
 * 7.1.4p2) instead of including <stdlib.h>, <string.h> and <math.h> takes
 * about a tenth off every cc run and changes no emitted instruction. */
#include <stddef.h>
void qsort(void* base, size_t n, size_t size, int (*cmp)(const void*, const void*));
void* memmove(void* dst, const void* src, size_t n);
double fmod(double x, double y);
double fmin(double x, double y);
double fmax(double x, double y);

#else

#include <stdlib.h>
#include <string.h>
#include <math.h>

/* ------------------------------------------------------------------ */
/* Display dialect: paper-style listings                              */
/* ------------------------------------------------------------------ */

#define TACO_WS_DENSE 0
#define TACO_WS_HASH 1
#define TACO_WS_COORDLIST 2

#ifndef min
#define min(a, b) (((a) < (b)) ? (a) : (b))
#endif
#ifndef max
#define max(a, b) (((a) > (b)) ? (a) : (b))
#endif

/* A sparse map workspace for the display dialect: a sorted coordinate
 * list (both the hash and coord-list kinds drain in ascending key order,
 * so one ordered backing reproduces either). */
typedef struct {
    int32_t kind;
    int64_t len;
    int64_t cap;
    int64_t* keys;
    double* vals;
} taco_ws_map;

static inline taco_ws_map* taco_ws_map_init(int32_t kind, int64_t capacity) {
    taco_ws_map* m = (taco_ws_map*)malloc(sizeof(taco_ws_map));
    if (!m) return NULL;
    if (capacity < 8) capacity = 8;
    m->kind = kind;
    m->len = 0;
    m->cap = capacity;
    m->keys = (int64_t*)malloc((size_t)capacity * sizeof(int64_t));
    m->vals = (double*)malloc((size_t)capacity * sizeof(double));
    return m;
}

static inline int64_t taco_ws_find_(const taco_ws_map* m, int64_t key) {
    int64_t lo = 0, hi = m->len;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (m->keys[mid] < key) lo = mid + 1; else hi = mid;
    }
    return lo;
}

static inline void taco_ws_insert_(taco_ws_map* m, int64_t at, int64_t key, double val) {
    if (m->len == m->cap) {
        m->cap *= 2;
        m->keys = (int64_t*)realloc(m->keys, (size_t)m->cap * sizeof(int64_t));
        m->vals = (double*)realloc(m->vals, (size_t)m->cap * sizeof(double));
    }
    memmove(m->keys + at + 1, m->keys + at, (size_t)(m->len - at) * sizeof(int64_t));
    memmove(m->vals + at + 1, m->vals + at, (size_t)(m->len - at) * sizeof(double));
    m->keys[at] = key;
    m->vals[at] = val;
    m->len += 1;
}

static inline void taco_ws_map_put(taco_ws_map* m, int64_t key, double val) {
    int64_t at = taco_ws_find_(m, key);
    if (at < m->len && m->keys[at] == key) m->vals[at] = val;
    else taco_ws_insert_(m, at, key, val);
}

static inline void taco_ws_map_accum(taco_ws_map* m, int64_t key, double val) {
    int64_t at = taco_ws_find_(m, key);
    if (at < m->len && m->keys[at] == key) m->vals[at] += val;
    else taco_ws_insert_(m, at, key, val);
}

/* Ascending-key drain cursor; the map is emptied as iteration starts. */
typedef struct {
    taco_ws_map* m;
    int64_t i;
    int64_t n;
    int64_t key;
    double val;
} taco_ws_iter;

static inline taco_ws_iter taco_ws_drain_sorted(taco_ws_map* m) {
    taco_ws_iter it;
    it.m = m;
    it.i = 0;
    it.n = m->len;
    it.key = 0;
    it.val = 0.0;
    m->len = 0;
    return it;
}

static inline bool taco_ws_iter_next(taco_ws_iter* it) {
    if (it->i >= it->n) return false;
    it->key = it->m->keys[it->i];
    it->val = it->m->vals[it->i];
    it->i += 1;
    return true;
}

#endif /* TACO_NATIVE_TU */

/* ------------------------------------------------------------------ */
/* Native dialect: the taco_ctx table ABI                             */
/* ------------------------------------------------------------------ */

/* Bump on any change to taco_ctx, the status codes, the map helpers'
 * arguments, or the entry signature. The host refuses shared objects whose
 * exported taco_abi_version() disagrees. */
#define TACO_ABI_VERSION 3

#define TACO_OK 0
#define TACO_ERR_HOST 1 /* a host callback recorded the error */
#define TACO_ERR_DIV0 2
#define TACO_ERR_OOB 3

/* Element-type codes for the alloc callback. */
#define TACO_TY_INT 0
#define TACO_TY_F64 1
#define TACO_TY_F32 2
#define TACO_TY_BOOL 3

typedef struct taco_ctx taco_ctx;

struct taco_ctx {
    void* host; /* opaque host state for callbacks */
    void** arr; /* array buffers, indexed by array slot */
    int64_t* arr_size; /* element counts, indexed by array slot */
    const int64_t* scalars; /* scalar params, declaration order */
    int64_t* scalar_out; /* scalar outputs, declaration order */
    int64_t ticks_left; /* loop iterations before the next poll */
    int32_t status; /* sticky fault code, TACO_OK while healthy */
    int32_t pad_;
    /* Host callbacks. Allocation/charge callbacks return 0 on failure
     * after recording a typed error host-side; the kernel must then
     * jump to its abort label. */
    int32_t (*alloc)(taco_ctx* ctx, int64_t slot, int32_t ty, int64_t len);
    int32_t (*grow)(taco_ctx* ctx, int64_t slot, int64_t len);
    int32_t (*poll)(taco_ctx* ctx);
    int32_t (*map_charge)(taco_ctx* ctx, int64_t vals_slot, int64_t footprint_bytes,
                          int64_t delta_bytes);
    void (*fault)(taco_ctx* ctx, int32_t code, int64_t slot, int64_t a, int64_t b);
};

/* One loop back-edge: burn a tick, poll the host every stride. The host
 * charges the iteration fuse in batches and checks cancel + deadline,
 * so supervision latency matches the interpreter's stride. */
#define TACO_TICK(ctx) \
    do { \
        if (--(ctx)->ticks_left < 0) { \
            if ((ctx)->poll(ctx)) goto taco_abort; \
        } \
    } while (0)

static inline int64_t taco_min_i64(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t taco_max_i64(int64_t a, int64_t b) { return a > b ? a : b; }

/* Wrapping i64 division matching the interpreter: divide-by-zero is a
 * sticky fault (the emitter aborts at the next statement boundary), and
 * INT64_MIN / -1 wraps instead of trapping. */
static inline int64_t taco_div_i64(taco_ctx* ctx, int64_t x, int64_t y) {
    if (y == 0) {
        ctx->fault(ctx, TACO_ERR_DIV0, -1, x, 0);
        return 0;
    }
    if (y == -1) return (int64_t)(0ULL - (uint64_t)x);
    return x / y;
}

static inline int64_t taco_rem_i64(taco_ctx* ctx, int64_t x, int64_t y) {
    if (y == 0) {
        ctx->fault(ctx, TACO_ERR_DIV0, -1, x, 0);
        return 0;
    }
    if (y == -1) return 0;
    return x % y;
}

static inline int taco_cmp_i64_(const void* a, const void* b) {
    int64_t x = *(const int64_t*)a, y = *(const int64_t*)b;
    return (x > y) - (x < y);
}

/* Bounds-checked range sort of an int64 array slot, mirroring the
 * interpreter's Sort semantics (error payload: idx = hi, len). */
static inline int32_t taco_sort_range(taco_ctx* ctx, int64_t slot, int64_t lo, int64_t hi) {
    int64_t len = ctx->arr_size[slot];
    if (lo < 0 || hi < lo || hi > len) {
        ctx->fault(ctx, TACO_ERR_OOB, slot, hi, len);
        return 0;
    }
    qsort((int64_t*)ctx->arr[slot] + lo, (size_t)(hi - lo), sizeof(int64_t), taco_cmp_i64_);
    return 1;
}

/* Map workspaces, hash and coord-list alike, exactly the interpreter's
 * store: keys kept sorted in one array slot (int64), values beside them in
 * another (double), the first *len entries live. *charged is the entry
 * capacity already charged against the byte budget at `per` bytes an
 * entry (24 hash, 16 coord-list): the budget model, not the physical
 * capacity. Budget payloads name the value slot, which is the
 * workspace's name. */
static inline int32_t taco_map_init(taco_ctx* ctx, int64_t ks, int64_t vs, int64_t* len,
                                    int64_t* charged, int64_t per, int64_t cap) {
    /* The host's grow refuses a negative length as NegativeLength. */
    if (cap < 0) return ctx->grow(ctx, vs, cap);
    if (!ctx->map_charge(ctx, vs, cap * per, cap * per)) return 0;
    *len = 0;
    *charged = cap;
    if (cap > ctx->arr_size[ks]) {
        if (!ctx->grow(ctx, ks, cap)) return 0;
        if (!ctx->grow(ctx, vs, cap)) return 0;
    }
    return 1;
}

static inline int32_t taco_map_scatter(taco_ctx* ctx, int64_t ks, int64_t vs, int64_t* len,
                                       int64_t* charged, int64_t per, int64_t key, double val,
                                       int add) {
    int64_t* keys = (int64_t*)ctx->arr[ks];
    double* vals = (double*)ctx->arr[vs];
    int64_t n = *len, lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (keys[mid] < key) lo = mid + 1; else hi = mid;
    }
    if (lo < n && keys[lo] == key) {
        if (add) vals[lo] += val; else vals[lo] = val;
        return 1;
    }
    /* New key: charge doubled capacity first. */
    if (n + 1 > *charged) {
        int64_t ncap = *charged * 2;
        if (ncap < n + 1) ncap = n + 1;
        if (ncap < 8) ncap = 8;
        if (!ctx->map_charge(ctx, vs, ncap * per, (ncap - *charged) * per)) return 0;
        *charged = ncap;
    }
    if (n + 1 > ctx->arr_size[ks]) {
        int64_t pcap = ctx->arr_size[ks] * 2;
        if (pcap < n + 1) pcap = n + 1;
        if (pcap < 8) pcap = 8;
        if (!ctx->grow(ctx, ks, pcap)) return 0;
        if (!ctx->grow(ctx, vs, pcap)) return 0;
        keys = (int64_t*)ctx->arr[ks];
        vals = (double*)ctx->arr[vs];
    }
    memmove(keys + lo + 1, keys + lo, (size_t)(n - lo) * sizeof(int64_t));
    memmove(vals + lo + 1, vals + lo, (size_t)(n - lo) * sizeof(double));
    keys[lo] = key;
    vals[lo] = val;
    *len = n + 1;
    return 1;
}

#endif /* TACO_KERNEL_H */
