/* Shared descriptor layouts for the compiled hot-loop kernels.
 *
 * Every simulated structure that a kernel touches is described by a
 * "descriptor": a small C struct whose storage is a preallocated int64
 * array ('q', Python's array module) owned by the Python wrapper (doubles
 * and unsigned words are written through a cast memoryview of the same
 * buffer; every field is 8 bytes, so the layouts match by construction).
 * Payload fields are raw pointers into the wrapper's flat int64 SoA
 * arrays -- the kernels mutate the exact arrays the wrapper reads for
 * checkpoints and line views, so nothing is copied between C and Python.
 *
 * LRU everywhere is monotonic-stamp based: the object caches'
 * insertion-ordered dicts perform a move-to-end on every touch, so
 * "victim = minimum stamp" selects the same victim the dict's first key
 * would (the object BTBs already evict the minimum stamp) -- replacement
 * decisions are byte-identical to the object oracle by construction.
 */
#ifndef REPRO_KERNELS_H
#define REPRO_KERNELS_H

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MASK64 0xFFFFFFFFFFFFFFFFULL

static inline uint64_t mix64(uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* ---- set-associative cache (memory/cache.py SetAssocCacheC) ---- */
typedef struct {
    int64_t *addrs;   /* [num_sets*assoc], -1 = free way */
    int64_t *flags;   /* packed PREFETCH|OFF_PATH|UDP|DIRTY bits */
    int64_t *stamps;  /* monotonic LRU stamps */
    int64_t num_sets;
    int64_t assoc;
    int64_t set_mask;     /* num_sets - 1 */
    int64_t line_shift;
    int64_t stamp;        /* monotonic touch counter */
    int64_t occupancy;
    int64_t evict_addr;   /* install() victim line addr, -1 = none */
    int64_t evict_flags;
} CacheDesc;

#define FLAG_PREFETCH 1
#define FLAG_OFF_PATH 2
#define FLAG_UDP 4
#define FLAG_DIRTY 8

/* ---- stream data prefetcher (memory/stream.py) ---- */
typedef struct {
    int64_t *last_line;
    int64_t *direction;
    int64_t *confidence;
    int64_t *lru;
    int64_t count;
    int64_t stamp;
    int64_t max_streams;
    int64_t degree;
    int64_t train_threshold;
    int64_t issued;
} StreamDesc;

/* ---- fused data/instruction miss path (memory/hierarchy.py) ---- */
typedef struct {
    CacheDesc *l1d;
    CacheDesc *l2;
    CacheDesc *llc;
    StreamDesc *stream;   /* NULL when the stream prefetcher is disabled */
    int64_t l1d_hit_latency;
    int64_t l2_hit_latency;
    int64_t llc_hit_latency;
    int64_t dram_latency;
    /* per-call event counts, replayed into Python counters by the wrapper */
    int64_t n_l1d_hit;       /* 0/1 */
    int64_t n_l2_data;
    int64_t n_llc_data;
    int64_t n_dram_data;
    int64_t n_stream_pf;
} HierDesc;

/* ---- BTB / iBTB (branch/btb.py *C) ---- */
typedef struct {
    int64_t *pcs;     /* tag array, -1 = free (iBTB stores tags here) */
    int64_t *kinds;   /* unused by the iBTB */
    int64_t *targets;
    int64_t *stamps;
    int64_t num_sets;
    int64_t assoc;
    int64_t stamp;
    int64_t hits;
    int64_t misses;
    int64_t occupancy;
} BtbDesc;

/* ---- folded global history (branch/history.py) ---- */
typedef struct {
    int64_t *folded;      /* [n] current folded values */
    int64_t *lengths;
    int64_t *out_shifts;
    int64_t *widths;
    int64_t *masks;
    int64_t n;
    uint64_t *words;      /* raw history bits, little-endian 64-bit words */
    int64_t n_words;
    uint64_t top_mask;    /* mask applied to the highest word */
} HistDesc;

/* ---- TAGE (branch/tage.py TagePredictorC arrays) ---- */
typedef struct {
    int64_t *tags;       /* [num_tables*size] */
    int64_t *ctrs;
    int64_t *useful;
    int64_t num_tables;
    int64_t size;
    int64_t index_mask;
    int64_t tag_mask;
    int64_t table_bits;
    int64_t *folded;     /* GlobalHistoryC folded array: [2t]=index, [2t+1]=tag */
    uint8_t *base_table; /* bimodal 2-bit counters */
    int64_t base_mask;
    int64_t use_alt_counter;
    int64_t use_alt_threshold;
    int64_t tick;
    /* prediction outputs */
    int64_t out_taken;
    int64_t out_confidence;
    int64_t out_provider;
    int64_t out_provider_index;
    int64_t out_alt_taken;
    int64_t out_alt_provider;
    int64_t out_alt_index;
    int64_t out_newly_allocated;
    int64_t *idx_scratch;  /* [num_tables] indices/tags of the last predict */
    int64_t *tag_scratch;
} TageDesc;

/* ---- synthetic data-address generator (workloads/data.py) ---- */
typedef struct {
    int64_t *occurrences;  /* [n_pcs], indexed by pc >> 2 */
    int64_t n_pcs;
    uint64_t seed;
    double stack_frac;
    double stack_plus_stream_frac;
    int64_t stride_bytes;
    int64_t footprint_span;  /* max(data_footprint_bytes, 64) */
} DataDesc;

/* ---- out-of-order backend (backend/core.py), SoA ring storage ---- */
typedef struct {
    int64_t *pc;             /* ring arrays indexed by seq & cap_mask */
    int64_t *op;
    int64_t *flags;          /* bit0 on_path, bit1 issued, bit2 has_resteer */
    int64_t *dep;            /* dep load seq, -1 = none */
    int64_t *addr;
    int64_t *dispatch_cycle;
    int64_t *complete_cycle;
    int64_t cap_mask;
    int64_t *rs;             /* [rs_entries] seqs in dispatch order */
    int64_t rs_len;
    int64_t rob_head;        /* ROB = contiguous seq range [rob_head, next_seq) */
    int64_t next_seq;
    int64_t rob_entries;
    int64_t rs_entries;
    int64_t retire_width;
    int64_t d2e;             /* decode_to_execute_latency */
    int64_t num_alu;
    int64_t num_load;
    int64_t num_store;
    int64_t scan_window;
    int64_t last_load;       /* seq, -1 = none */
    int64_t issue_wake;
    int64_t pending_resteer_cycle;  /* -1 = none */
    int64_t pending_resteer_seq;
    int64_t retired_instructions;
    int64_t retired_total;
    uint8_t *dep_table;      /* per-PC load-dependence flags, may be NULL */
    int64_t dep_len;
    uint64_t seed;
    int64_t dep_threshold;
    int64_t *out_retired;    /* [retire_width] on-path retired pcs (hook) */
    int64_t hook_active;
    int64_t *out_mem;        /* [2*scan_window] (seq, is_store) replay list */
    DataDesc *data;
} BackendDesc;

#define UOP_ON_PATH 1
#define UOP_ISSUED 2
#define UOP_HAS_RESTEER 4

#define WAKE_IDLE (1LL << 60)
#define NO_EVENT (-1LL)

#define OPC_LOAD 1
#define OPC_STORE 2

/* argument helpers */
static inline int64_t arg_i64(PyObject *const *args, Py_ssize_t i) {
    return PyLong_AsLongLong(args[i]);
}
static inline void *arg_ptr(PyObject *const *args, Py_ssize_t i) {
    return (void *)(uintptr_t)(uint64_t)PyLong_AsUnsignedLongLongMask(args[i]);
}

/* kernel call counters (profile attribution) */
enum {
    KC_CACHE_LOOKUP,
    KC_CACHE_CONTAINS,
    KC_CACHE_INSTALL,
    KC_CACHE_INVALIDATE,
    KC_HIER_LOAD,
    KC_HIER_STORE,
    KC_HIER_IMISS,
    KC_STREAM_ON_MISS,
    KC_BTB_PROBE,
    KC_BTB_CONTAINS,
    KC_BTB_FILL,
    KC_IBTB_PREDICT,
    KC_IBTB_TRAIN,
    KC_HIST_PUSH,
    KC_TAGE_PREDICT,
    KC_TAGE_UPDATE,
    KC_BE_DISPATCH,
    KC_BE_ISSUE,
    KC_BE_RETIRE,
    KC_BE_POLL,
    KC_BE_NEXT_EVENT,
    KC_BE_SQUASH,
    KC_BE_CAN_DISPATCH,
    KC_DATA_NEXT,
    KC_RUN_CYCLES,
    KC_FUNCTIONAL_WALK,
    KC_COUNT
};

extern int64_t repro_kernel_calls[KC_COUNT];

/* The kernel files build as one translation unit (common/cc.py #includes
 * them in KERNEL_SOURCES order), so a later file calls an earlier file's
 * static helpers directly -- the cycle driver reuses every structure's
 * kernel code this way instead of copying it. */
int64_t cache_lookup_impl(CacheDesc *c, int64_t line_addr, int touch);
int64_t cache_install_impl(CacheDesc *c, int64_t line_addr, int64_t flags);
int64_t data_next_impl(DataDesc *d, int64_t pc);

/* method tables contributed by each kernel file */
extern PyMethodDef repro_cache_methods[];
extern PyMethodDef repro_btb_methods[];
extern PyMethodDef repro_tage_methods[];
extern PyMethodDef repro_backend_methods[];
extern PyMethodDef repro_driver_methods[];

#endif /* REPRO_KERNELS_H */
