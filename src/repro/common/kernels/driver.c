/* The compiled cycle driver: the Python stepper's whole loop in C.
 *
 * Port of sim/stepper.py (step, the idle-cycle fast-forward and refill
 * rules, fills, fetch/decode/dispatch, resteer/squash/recovery),
 * frontend/bpu.py (the FTQ walker shadowing the oracle), branch/unit.py
 * (the BTB, the two-level BTB's L2 and promotion, the loop predictor's
 * override), frontend/fdip.py (the FTQ scan), memory/mshr.py,
 * workloads/trace.py (the true-path cursor), core/ (UDP: the
 * confidence estimator, the FDIP gate over the useful-set and the
 * Seniority-FTQ, and their learning and flush rules) and the built-in
 * comparators (EIP's and MANA's tables in techniques.c, asked where a
 * plug-in's on_demand_access is called back, and shadow-btb's predecoder
 * at every fill), for every configuration.  Two participants stay in
 * Python and are called back synchronously: a plug-in registry technique
 * (the loop calls its on_demand_access/on_line_filled where the stepper
 * does and applies the returned prefetch lines here,
 * stepper._standalone_prefetch) and UFTQ's controller (told of each
 * on-path demand miss and prefetch outcome, it returns the FTQ depth it
 * chose).  The kernels this file calls -- cache, BTB/iBTB, history, TAGE,
 * backend, hierarchy, the comparators' tables -- are static helpers of the
 * other kernel files: every kernel file is #included into one translation
 * unit (common/cc.py).
 *
 * A second entry point, functional_walk, ports stepper.walk_true_path:
 * the functional warmup and the (warming) fast-forward, with no timing.
 * It walks the oracle over the same program tables and structures, on a
 * descriptor of its own that sim/driver.py writes back when it returns, so
 * a walk never ties the cycles after it to the driver.
 *
 * State split: the structures above keep living in their descriptors, so
 * Python reads them as before.  The pipeline state Python never needs to
 * see -- the FTQ ring (plain entries with separate head/length, after the
 * ember FTQ), the MSHR file and the in-flight resteers -- lives in arrays
 * only this file touches.  The observable scalars (cycle, counters, FTQ
 * occupancy, the oracle position, ...) sit at the front of the Driver
 * descriptor, UDP's at the front of its own, and the Python wrapper syncs
 * them back at every exit; the useful-set's Bloom bits are the filters'
 * own bytearrays.
 *
 * Ground truth comes from per-program tables (workloads/tables.py): block
 * addresses/sizes/op bytes, branch kinds and static targets, and the
 * branch behaviours compiled to a small node array evaluated here with
 * the same 64-bit hash and IEEE arithmetic as workloads/behavior.py.
 */
#include "kernels.h"

#include <math.h>
#include <stddef.h>
#include <string.h>

#define FB_INSTRS 8 /* FETCH_BLOCK_BYTES / INSTR_BYTES */
#define FB_MASK (~31LL)
#define LINE_MASK (~63LL)
#define OP_BRANCH 3
#define RESTEER_POOL 8

/* run_cycles status codes (sim/driver.py mirrors them) */
#define RUN_DONE 0   /* retire target reached */
#define RUN_STOP 1   /* retired count crossed the warmup boundary */
#define RUN_LIMIT 2  /* cycle limit: Python raises SimulationError */
#define ERR_ORACLE_SYNC (-1)
#define ERR_RESTEER_POOL (-2)
#define ERR_RESTEER_LOST (-3)
#define ERR_UDP_LINE (-4)
#define ERR_CALLBACK (-5)    /* a Python callback raised: the exception is set */

/* workloads/program.py BranchKind */
enum { K_COND, K_JUMP, K_CALL, K_RET, K_INDIRECT, K_INDIRECT_CALL };
#define IS_CALL(k) ((k) == K_CALL || (k) == K_INDIRECT_CALL)
#define IS_INDIRECT(k) ((k) == K_INDIRECT || (k) == K_INDIRECT_CALL)

/* behaviour node kinds (workloads/tables.py) */
enum { B_ALWAYS, B_BIASED, B_LOOP, B_PATTERN, B_PHASED,
       B_FIXED, B_WEIGHTED, B_ZIPF, B_ROTATING };

enum { STAGE_DECODE, STAGE_EXECUTE };
enum { CAUSE_BTB_MISS, CAUSE_COND, CAUSE_RAS, CAUSE_INDIRECT };
enum { RS_FREE, RS_FTQ, RS_BACKEND };

/* Counter slots, in the order their names are exported to Python. */
#define DRIVER_COUNTERS(X) \
    X(fetch_slots_lost_empty_ftq) X(fetch_slots_lost_icache) \
    X(fetch_stall_icache_cycles) X(fetch_slots_lost_mshr_full) \
    X(icache_demand_accesses) X(icache_demand_hits) \
    X(dispatch_stall_backend_full) X(dispatched_instructions) X(l1i_fills) \
    X(ftq_full_cycles_blocks) X(icache_demand_mshr_merges) \
    X(icache_demand_misses) X(icache_demand_misses_on_path) \
    X(icache_demand_misses_off_path) X(icache_mshr_full_stalls) \
    X(demand_fill_l2) X(demand_fill_llc) X(demand_fill_dram) \
    X(prefetch_useful) X(prefetch_useful_off_path) X(prefetch_useful_on_path) \
    X(atr_icache_hits) X(atr_mshr_hits) \
    X(prefetch_useless) X(prefetch_useless_off_path) X(prefetch_useless_on_path) \
    X(pfc_resteers) X(btb_decode_fills) X(wrong_path_pfc_redirects) \
    X(ftq_blocks_on_path) X(ftq_blocks_off_path) X(btb_gen_hits) X(btb_gen_misses) \
    X(divergence_btb_miss) X(divergence_cond_mispredict) \
    X(divergence_ras_mispredict) X(divergence_indirect_mispredict) \
    X(resteers) X(resteer_btb_miss) X(resteer_cond_mispredict) \
    X(resteer_ras_mispredict) X(resteer_indirect_mispredict) \
    X(resteer_at_decode) X(resteer_at_execute) \
    X(bpu_cond_predictions) X(bpu_indirect_predictions) \
    X(bpu_return_predictions) X(bpu_recoveries) X(bpu_cond_mispredicts) \
    X(bpu_loop_overrides) \
    X(fdip_probe_resident) X(fdip_probe_inflight) X(fdip_candidates) \
    X(fdip_candidates_on_path) X(fdip_candidates_off_path) \
    X(prefetches_emitted) X(prefetches_emitted_on_path) \
    X(prefetches_emitted_off_path) X(fdip_drop_mshr_full) \
    X(prefetch_fill_l2) X(prefetch_fill_llc) X(prefetch_fill_dram) \
    X(l2_ifetch_hits) X(llc_ifetch_hits) X(dram_ifetch_fills) \
    X(l1d_accesses) X(l1d_hits) X(l1d_misses) X(l1d_stores) \
    X(l2_data_hits) X(llc_data_hits) X(dram_data_fills) X(stream_prefetches) \
    X(wrong_path_retired) X(backend_squashed_uops) \
    X(udp_conf_0) X(udp_conf_1) X(udp_conf_2) X(udp_forced_off_path) \
    X(udp_pass_on_path) X(udp_emit_off_path) X(udp_superline_emits) \
    X(udp_drop_off_path) X(fdip_gated_drops) \
    X(useful_set_hit_1) X(useful_set_hit_2) X(useful_set_hit_4) \
    X(useful_set_insert_1) X(useful_set_insert_2) X(useful_set_insert_4) \
    X(useful_set_flush_1) X(useful_set_flush_2) X(useful_set_flush_4) \
    X(udp_learned_useful) X(udp_learned_useful_direct)

/* The built-in comparators' counters, after those: a name appears in
 * Python only once its counter moved, as the object techniques' bumps
 * create it. */
#define TECHNIQUE_COUNTERS(X) \
    X(mana_replayed_lines) X(mana_records_trained) \
    X(shadow_btb_lines_scanned) X(shadow_btb_branches_found) X(shadow_btb_prefills)

#define DC_ENUM(name) DC_##name,
enum { DRIVER_COUNTERS(DC_ENUM) TECHNIQUE_COUNTERS(DC_ENUM) DC_COUNT };
#define DC_EAGER DC_mana_replayed_lines  /* the counters Python interns first */
#define DC_NAME(name) #name,
static const char *const DC_NAMES[DC_COUNT] = {
    DRIVER_COUNTERS(DC_NAME) TECHNIQUE_COUNTERS(DC_NAME)
};

/* Per-program ground truth: the program's own column buffers
 * (workloads/tables.py), checked before anything reads them (check_columns,
 * tables.c). */
typedef struct {
    int64_t n_blocks;
    int64_t code_start;
    int64_t code_end;
    int64_t entry;
    const int64_t *addr;        /* [n_blocks] block start */
    const int64_t *ninstr;
    const uint8_t *ops;         /* one op byte per instruction, at (pc - code_start) >> 2 */
    const int64_t *kind;        /* branch kind, -1 = no branch */
    const int64_t *target;      /* direct target */
    const int64_t *behavior;    /* COND: direction node; indirect: selector node */
    const int64_t *targets_off; /* indirect: first index into targets */
    const int64_t *targets_n;
    const int64_t *targets;
    const int64_t *node_kind;
    const int64_t *node_seed;   /* uint64 bits */
    const double *node_f;       /* p_taken / noise / hot_fraction / alpha */
    const int64_t *node_a;      /* trip_count / pattern / phase_length / index */
    const int64_t *node_b;      /* pattern length / first phase */
    const int64_t *node_c;      /* second phase */
    /* the block index (index_blocks, tables.c): per 64-byte line from
     * line_base, the block holding the line's first byte (block 0 for the
     * first line's bytes before code_start) */
    int64_t line_base;          /* code_start & ~63 */
    int64_t n_lines;
    const int64_t *line_block;  /* [n_lines] */
} ProgTables;

/* One FTQ entry: a fetch block of at most FB_INSTRS instructions. */
typedef struct {
    int64_t seq;
    int64_t start;
    int64_t end;
    int64_t line_addr;
    int64_t on_path;
    int64_t on_path_instrs;
    int64_t ready_cycle;    /* -1 = not yet accessed */
    int64_t decode_offset;
    int64_t resteer;        /* pool slot of the divergence inside, -1 = none */
    int64_t assumed_off_path;  /* UDP's belief when the walk started */
    int32_t br_block[FB_INSTRS];  /* per offset: the branch's block, -1 = none */
    uint8_t br_detected[FB_INSTRS];
    uint8_t ops[FB_INSTRS];
} FtqEntry;

typedef struct {
    int64_t line_addr;
    int64_t ready_cycle;
    int64_t is_prefetch;
    int64_t off_path;
    int64_t demand_on_path;
    int64_t udp_candidate;  /* emitted while UDP assumed off-path */
} MshrEntry;

/* A detected divergence waiting for its resolution point. */
typedef struct {
    int64_t state;          /* RS_FREE / RS_FTQ / RS_BACKEND */
    int64_t seq;            /* backend seq of the branch once dispatched */
    int64_t branch_pc;
    int64_t stage;
    int64_t resume_pc;
    int64_t cause;
    int64_t *hist;          /* corrected history: hist_words words, then folds */
} Resteer;

/* One useful-set Bloom filter (core/bloom.py); slot k holds 2^k-line
 * super-blocks. */
typedef struct {
    uint8_t *bits;          /* the filter's own bytearray */
    int64_t mask;           /* size in bits - 1 */
    int64_t inserted;       /* synced: inserts since the last clear */
    int64_t capacity;       /* "full" once inserted reaches it */
    const int64_t *seeds;   /* [num_hashes] per-hash XOR seeds */
} Bloom;

/* UDP (core/udp.py, confidence.py, useful_set.py, superline.py,
 * seniority.py); the Driver points at one only when UDP is on. */
typedef struct {
    /* observable state, synced with Python at every exit */
    int64_t conf_counter;
    int64_t forced;
    int64_t window_unuseful;
    int64_t window_total;
    int64_t coal_len;
    int64_t sen_len;
    int64_t sen_inserted;
    int64_t sen_matched;
    int64_t sen_evicted;
    /* configuration */
    int64_t threshold;
    int64_t incr[3];        /* per TAGE confidence class: low, medium, high */
    int64_t use_seniority;
    int64_t use_superlines;
    int64_t infinite;
    int64_t num_hashes;
    int64_t coal_cap;
    int64_t sen_cap;
    double flush_ratio;
    int64_t exact_base;     /* first line of the code region */
    int64_t exact_n;
    Bloom bloom[3];
    /* arrays owned by the Python wrapper */
    int64_t *coal;          /* [coal_cap + 1] coalescing buffer, oldest first */
    int64_t *sen;           /* [sen_cap] Seniority-FTQ lines, oldest first */
    uint8_t *exact;         /* [exact_n] infinite storage: one byte per code line */
} UdpState;

typedef struct {
    /* observable state, synced with Python at every exit */
    int64_t cycle;
    int64_t steps;
    int64_t ff_jumps;
    int64_t ff_skipped;
    int64_t occ_sum;
    int64_t occ_samples;
    int64_t ftq_depth;
    int64_t oracle_pc;
    int64_t blocks_walked;
    int64_t instrs_walked;
    int64_t cs_len;
    int64_t spec_pc;
    int64_t next_seq;
    int64_t diverged;
    int64_t next_scan_seq;
    int64_t ras_len;
    int64_t ras_overflows;
    int64_t ras_underflows;
    int64_t error_pc;
    int64_t demand_calls;   /* technique callbacks made */
    int64_t fill_calls;
    int64_t btb_promotions; /* two-level BTB: L2 hits promoted into the L1 */
    /* configuration */
    int64_t width;
    int64_t blocks_per_cycle;
    int64_t fdip_lookups;
    int64_t fdip_enabled;
    int64_t perfect_icache;
    int64_t pfc;
    int64_t max_cycles;
    int64_t mshr_cap;
    int64_t ftq_cap;
    int64_t ras_cap;
    int64_t max_stack;
    int64_t ibtb_hist_bits;
    int64_t hist_words;     /* allocated history words (>= the shifted ones) */
    /* structures (descriptors owned by their Python wrappers) */
    BtbDesc *btb;           /* the BTB, or the two-level BTB's L1 */
    BtbDesc *btb2;          /* the two-level BTB's L2, NULL for one level */
    LoopDesc *loop;         /* NULL without the loop predictor */
    BtbDesc *ibtb;
    TageDesc *tage;
    HistDesc *hist;
    CacheDesc *l1i;
    HierDesc *hier;
    BackendDesc *be;
    ProgTables *prog;
    UdpState *udp;          /* NULL when UDP is off */
    /* the technique's callables (references held by the Python wrapper) */
    PyObject *on_demand;    /* on_demand_access, NULL without a technique object */
    PyObject *on_fill;      /* on_line_filled, NULL unless it observes fills */
    PyObject *reject;       /* raises SimulationError for a bad prefetch line */
    PyObject *on_uftq;      /* UFTQ's event callback, NULL when UFTQ is off */
    /* a built-in comparator the loop runs itself (techniques.c), instead of
     * calling a technique object back */
    EipDesc *eip;           /* EIP's tables, NULL unless eip runs */
    ManaDesc *mana;         /* MANA's, NULL unless mana runs */
    int64_t shadow_budget;  /* shadow-btb: BTB prefills per filled line, 0 = off */
    /* arrays owned by the Python wrapper */
    int64_t *counters;      /* [DC_COUNT] deltas since the last sync */
    int64_t *occ;           /* [n_blocks] the oracle's own occurrence counts */
    int64_t *call_stack;    /* [max_stack] */
    int64_t *ras;           /* [ras_cap] */
    FtqEntry *ftq;          /* [ftq_cap] ring */
    MshrEntry *mshr;        /* [mshr_cap], the live entries first */
    Resteer *resteers;      /* [RESTEER_POOL] */
    int64_t *resteer_hist;  /* [RESTEER_POOL * (hist_words + hist->n)] */
    /* internal */
    int64_t ready;
    int64_t ftq_head;
    int64_t ftq_len;
    int64_t mshr_count;     /* live entries: mshr[0..mshr_count) */
    int64_t mshr_ready;     /* their earliest ready cycle, NO_FILL when none */
    int64_t pending;        /* the frontend's divergence in flight, -1 = none */
    int64_t error;
} Driver;

/* ---- ground truth: behaviours and the oracle cursor ---- */

static inline double unit_hash(uint64_t seed, int64_t index) {
    return (double)mix64(seed ^ ((uint64_t)index * 0x9E3779B97F4A7C15ULL))
           / 18446744073709551616.0;
}

/* DirectionBehavior.taken for behaviour node `node`. */
static int64_t dir_taken(const ProgTables *P, int64_t node, int64_t occ) {
    for (;;) {
        uint64_t seed = (uint64_t)P->node_seed[node];
        double f = P->node_f[node];
        int64_t a = P->node_a[node];
        switch (P->node_kind[node]) {
        case B_BIASED:
            return unit_hash(seed, occ) < f;
        case B_LOOP:
            if (a <= 1) return 0;
            return (occ % a) != a - 1;
        case B_PATTERN: {
            int64_t shift = occ % P->node_b[node];
            int64_t bit = shift < 64 ? (int64_t)(((uint64_t)a >> shift) & 1) : 0;
            if (f > 0.0 && unit_hash(seed ^ 0xA5A5ULL, occ) < f) return !bit;
            return bit;
        }
        case B_PHASED:
            node = ((occ / a) % 2 == 0) ? P->node_b[node] : P->node_c[node];
            continue;
        default: /* B_ALWAYS */
            return 1;
        }
    }
}

/* TargetBehavior.select for selector node `node` over `n` targets. */
static int64_t target_index(const ProgTables *P, int64_t node, int64_t occ, int64_t n) {
    uint64_t seed = (uint64_t)P->node_seed[node];
    double f = P->node_f[node];
    switch (P->node_kind[node]) {
    case B_FIXED: {
        int64_t index = P->node_a[node];
        return index < 0 ? index + n : index;
    }
    case B_WEIGHTED: {
        if (n == 1) return 0;
        double u = unit_hash(seed, occ);
        if (u < f) return 0;
        int64_t rest = n - 1;
        int64_t idx = (int64_t)((u - f) / (1.0 - f) * (double)rest);
        return 1 + (idx < rest - 1 ? idx : rest - 1);
    }
    case B_ZIPF: {
        if (n == 1) return 0;
        double u = unit_hash(seed, occ);
        if (f <= 0.0) return (int64_t)(u * (double)n);
        int64_t idx;
        if (f >= 0.999) {
            idx = (int64_t)pow((double)n, u) - 1;
        } else {
            idx = (int64_t)((double)n * pow(u, 1.0 / (1.0 - f)));
        }
        if (idx < 0) idx = 0;
        return idx < n - 1 ? idx : n - 1;
    }
    default: /* B_ROTATING */
        return occ % n;
    }
}

static inline int64_t block_end(const ProgTables *P, int64_t b) {
    return P->addr[b] + P->ninstr[b] * 4;
}

/* Program.block_at for an address inside the code region: its line's
 * entry in the block index, then the blocks starting later in the line. */
static inline int64_t block_at(const ProgTables *P, int64_t addr) {
    int64_t b = P->line_block[(addr - P->line_base) >> 6];
    while (b + 1 < P->n_blocks && P->addr[b + 1] <= addr) b++;
    return b;
}

/* Program.wrap */
static inline int64_t wrap_pc(const ProgTables *P, int64_t addr) {
    if (addr >= P->code_start && addr < P->code_end) return addr;
    int64_t span = P->code_end - P->code_start;
    int64_t r = (addr - P->code_start) % span;
    return P->code_start + (r < 0 ? r + span : r);
}

/* OracleCursor.transition for the branch ending block `b`: the true
 * direction and successor of its current occurrence. */
static int64_t oracle_truth(Driver *d, int64_t b, int64_t *taken) {
    const ProgTables *P = d->prog;
    int64_t kind = P->kind[b];
    int64_t occ = d->occ[b];
    *taken = 1;
    if (kind == K_COND) {
        *taken = dir_taken(P, P->behavior[b], occ);
        return *taken ? P->target[b] : block_end(P, b);
    }
    if (kind == K_RET) {
        return d->cs_len > 0 ? d->call_stack[d->cs_len - 1] : P->entry;
    }
    if (IS_INDIRECT(kind)) {
        int64_t n = P->targets_n[b];
        return P->targets[P->targets_off[b] + target_index(P, P->behavior[b], occ, n)];
    }
    return P->target[b];
}

/* OracleCursor.advance past the branch ending block `b`. */
static void oracle_advance(Driver *d, int64_t b, int64_t next_pc) {
    const ProgTables *P = d->prog;
    int64_t kind = P->kind[b];
    d->occ[b]++;
    if (IS_CALL(kind)) {
        if (d->cs_len >= d->max_stack) {
            memmove(d->call_stack, d->call_stack + 1, (size_t)(d->cs_len - 1) * sizeof(int64_t));
            d->cs_len--;
        }
        d->call_stack[d->cs_len++] = block_end(P, b);
    } else if (kind == K_RET && d->cs_len > 0) {
        d->cs_len--;
    }
    d->oracle_pc = next_pc;
    d->blocks_walked++;
    d->instrs_walked += P->ninstr[b];
}

/* ---- branch prediction unit (branch/unit.py) ---- */

static inline int64_t hist_low_bits(Driver *d) {
    return (int64_t)(d->hist->words[0] & ((1ULL << d->ibtb_hist_bits) - 1));
}

static inline int64_t ibtb_mixed(Driver *d, int64_t pc) {
    return (pc >> 2) ^ (hist_low_bits(d) * 0x9E37);
}

/* BranchPredictionUnit.fill_btb: both levels of a two-level BTB (its L2
 * is inclusive). */
static void btb_fill(Driver *d, int64_t pc, int64_t kind, int64_t target) {
    btb_fill_impl(d->btb, pc, kind, target);
    if (d->btb2 != NULL) btb_fill_impl(d->btb2, pc, kind, target);
}

/* TwoLevelBTB.contains: either level holds `pc`. */
static int btb_contains(Driver *d, int64_t pc) {
    return btb_contains_impl(d->btb, pc) || (d->btb2 != NULL && btb_contains_impl(d->btb2, pc));
}

/* BranchPredictionUnit.train_indirect */
static void train_indirect(Driver *d, int64_t pc, int64_t kind, int64_t target) {
    int64_t mixed = ibtb_mixed(d, pc);
    ibtb_train_impl(d->ibtb, mixed % d->ibtb->num_sets, mixed, target);
    btb_fill(d, pc, kind, target);
}

/* TwoLevelBTB.probe: the L1 way, or -1.  An L2 hit promotes the entry
 * into the L1 but still misses this probe. */
static int64_t btb_probe(Driver *d, int64_t pc) {
    int64_t g = btb_probe_impl(d->btb, pc);
    if (g >= 0 || d->btb2 == NULL) return g;
    int64_t g2 = btb_probe_impl(d->btb2, pc);
    if (g2 >= 0) {
        btb_fill_impl(d->btb, pc, d->btb2->kinds[g2], d->btb2->targets[g2]);
        d->btb_promotions++;
    }
    return -1;
}

/* ---- the loop predictor (branch/loop_predictor.py) ---- */

/* LoopPredictor.predict: the trip-count override (0/1), or -1 to defer
 * to TAGE. */
static int64_t loop_predict(LoopDesc *l, int64_t pc) {
    int64_t i = (pc >> 2) & l->mask;
    if (l->tags[i] != pc || l->confidence[i] < l->threshold || l->trip[i] == 0) return -1;
    l->overrides++;
    return l->current[i] < l->trip[i] - 1;
}

/* LoopPredictor.update with a resolved outcome; `predicted` is the
 * override the prediction carried (-1: none). */
static void loop_update(LoopDesc *l, int64_t pc, int64_t taken, int64_t predicted) {
    if (predicted >= 0 && predicted == taken) l->correct_overrides++;
    int64_t i = (pc >> 2) & l->mask;
    if (l->tags[i] != pc) {
        /* allocate on a not-taken outcome only: exits delimit trips */
        if (!taken) {
            l->tags[i] = pc;
            l->trip[i] = l->current[i] = l->confidence[i] = 0;
        }
        return;
    }
    if (taken) {
        if (++l->current[i] > l->max_trip) {
            /* not a bounded loop: poison the entry */
            l->trip[i] = l->current[i] = l->confidence[i] = 0;
        }
        return;
    }
    int64_t observed = l->current[i] + 1;
    if (observed == l->trip[i]) {
        if (l->confidence[i] < l->threshold) l->confidence[i]++;
    } else {
        l->trip[i] = observed;
        l->confidence[i] = 0;
    }
    l->current[i] = 0;
}

/* ---- UFTQ (core/uftq.py): a synchronous Python callback ---- */

/* UFTQController.on_event's event codes (core/uftq.py mirrors them). */
enum { UFTQ_DEMAND_MISS, UFTQ_USEFUL_TIMELY, UFTQ_USEFUL_LATE, UFTQ_USELESS };

/* Tell UFTQ's controller of one event and take the FTQ depth it returns;
 * ERR_CALLBACK when it raised. */
static void uftq_event(Driver *d, int64_t event) {
    PyObject *arg = PyLong_FromLongLong(event);
    PyObject *depth = arg != NULL ? PyObject_CallOneArg(d->on_uftq, arg) : NULL;
    Py_XDECREF(arg);
    if (depth != NULL) {
        d->ftq_depth = PyLong_AsLongLong(depth);
        Py_DECREF(depth);
    }
    if (depth == NULL || PyErr_Occurred()) d->error = ERR_CALLBACK;
}

static inline int64_t hist_image_words(Driver *d) {
    return d->hist_words + d->hist->n;
}

static void hist_save(Driver *d, int64_t *image) {
    memcpy(image, d->hist->words, (size_t)d->hist_words * sizeof(int64_t));
    memcpy(image + d->hist_words, d->hist->folded, (size_t)d->hist->n * sizeof(int64_t));
}

static void hist_restore(Driver *d, const int64_t *image) {
    memcpy(d->hist->words, image, (size_t)d->hist_words * sizeof(int64_t));
    memcpy(d->hist->folded, image + d->hist_words, (size_t)d->hist->n * sizeof(int64_t));
}

static void ras_push(Driver *d, int64_t addr) {
    if (d->ras_len >= d->ras_cap) {
        memmove(d->ras, d->ras + 1, (size_t)(d->ras_len - 1) * sizeof(int64_t));
        d->ras_len--;
        d->ras_overflows++;
    }
    d->ras[d->ras_len++] = addr;
}

/* ReturnAddressStack.repair from the oracle's true call stack. */
static void ras_repair(Driver *d) {
    int64_t n = d->cs_len < d->ras_cap ? d->cs_len : d->ras_cap;
    memcpy(d->ras, d->call_stack + d->cs_len - n, (size_t)n * sizeof(int64_t));
    d->ras_len = n;
}

/* ---- FTQ and MSHR file ---- */

static inline FtqEntry *ftq_at(Driver *d, int64_t i) {
    int64_t at = d->ftq_head + i;  /* both below ftq_cap */
    return &d->ftq[at < d->ftq_cap ? at : at - d->ftq_cap];
}

/* Drop every entry; a divergence attached to a dropped entry dies with it. */
static void ftq_flush(Driver *d) {
    d->ftq_head = (d->ftq_head + d->ftq_len) % d->ftq_cap;
    d->ftq_len = 0;
    for (int64_t i = 0; i < RESTEER_POOL; i++) {
        if (d->resteers[i].state == RS_FTQ) d->resteers[i].state = RS_FREE;
    }
}

#define NO_FILL INT64_MAX

static inline MshrEntry *mshr_lookup(Driver *d, int64_t line_addr) {
    for (int64_t i = 0; i < d->mshr_count; i++) {
        if (d->mshr[i].line_addr == line_addr) return &d->mshr[i];
    }
    return NULL;
}

/* Earliest outstanding fill, or -1 when none is in flight. */
static inline int64_t mshr_next_ready(Driver *d) {
    return d->mshr_count ? d->mshr_ready : -1;
}

static void mshr_allocate(Driver *d, int64_t line_addr, int64_t ready_cycle,
                          int64_t is_prefetch, int64_t off_path, int64_t udp_candidate) {
    MshrEntry *m = &d->mshr[d->mshr_count++];
    m->line_addr = line_addr;
    m->ready_cycle = ready_cycle;
    m->is_prefetch = is_prefetch;
    m->off_path = off_path;
    m->demand_on_path = 0;
    m->udp_candidate = udp_candidate;
    if (ready_cycle < d->mshr_ready) d->mshr_ready = ready_cycle;
}

/* Take the next fill in (ready_cycle, line_addr) order, like the MSHR
 * ready heap, out of the file. */
static MshrEntry mshr_pop(Driver *d) {
    int64_t best = 0;
    for (int64_t i = 1; i < d->mshr_count; i++) {
        const MshrEntry *m = &d->mshr[i], *b = &d->mshr[best];
        if (m->ready_cycle < b->ready_cycle
            || (m->ready_cycle == b->ready_cycle && m->line_addr < b->line_addr)) {
            best = i;
        }
    }
    MshrEntry fill = d->mshr[best];
    d->mshr[best] = d->mshr[--d->mshr_count];
    d->mshr_ready = NO_FILL;
    for (int64_t i = 0; i < d->mshr_count; i++) {
        if (d->mshr[i].ready_cycle < d->mshr_ready) d->mshr_ready = d->mshr[i].ready_cycle;
    }
    return fill;
}

/* An L1I miss below the L1I: the fill latency; bumps the ifetch level
 * counter and, via `level_counter` (-1: none), the caller's per-level
 * counter. */
static int64_t imiss(Driver *d, int64_t line_addr, int level_counter) {
    int64_t packed = hier_imiss_impl(d->hier, line_addr);
    int64_t level = packed & 3;
    d->counters[DC_l2_ifetch_hits + level]++;
    if (level_counter >= 0) d->counters[level_counter + level]++;
    return packed >> 2;
}

/* ---- registry techniques ---- */

/* stepper._standalone_prefetch for one line a technique returned: it is
 * prefetched unless the L1I or an MSHR already holds it; 0 once the MSHR
 * file is full, which drops the rest. */
static int standalone_prefetch(Driver *d, int64_t line, int on_path, int64_t cycle) {
    int64_t base;
    if (cache_find(d->l1i, line, &base) >= 0 || mshr_lookup(d, line) != NULL) return 1;
    if (d->mshr_count >= d->mshr_cap) return 0;
    int64_t latency = imiss(d, line, -1);
    mshr_allocate(d, line, cycle + latency, 1, !on_path, 0);
    d->counters[DC_prefetches_emitted]++;
    d->counters[on_path ? DC_prefetches_emitted_on_path : DC_prefetches_emitted_off_path]++;
    return 1;
}

/* The line a plug-in returned, or -1 once `reject` has raised for a value
 * that is not a non-negative, 64-byte-aligned int: an unaligned line fills
 * a way no demand access ever hits, and -1 marks free cache ways. */
static int64_t prefetch_line(Driver *d, PyObject *item) {
    if (PyLong_CheckExact(item)) {
        int overflow;
        long long line = PyLong_AsLongLongAndOverflow(item, &overflow);
        if (!overflow && line >= 0 && !(line & 63)) return line;
    }
    Py_XDECREF(PyObject_CallOneArg(d->reject, item));
    return -1;
}

/* A plug-in observes one demand access, called back synchronously; the
 * lines it returns are prefetched in order. */
static void callback_demand(Driver *d, int64_t line_addr, int hit, int on_path, int64_t cycle) {
    PyObject *args[3] = {PyLong_FromLongLong(line_addr), hit ? Py_True : Py_False,
                         on_path ? Py_True : Py_False};
    if (args[0] == NULL) {
        d->error = ERR_CALLBACK;
        return;
    }
    d->demand_calls++;
    PyObject *lines = PyObject_Vectorcall(d->on_demand, args, 3, NULL);
    Py_DECREF(args[0]);
    PyObject *it = lines != NULL ? PyObject_GetIter(lines) : NULL;
    Py_XDECREF(lines);
    if (it == NULL) {
        d->error = ERR_CALLBACK;
        return;
    }
    PyObject *item;
    while ((item = PyIter_Next(it)) != NULL) {
        int64_t line = prefetch_line(d, item);
        Py_DECREF(item);
        if (line < 0) {
            d->error = ERR_CALLBACK;
            break;
        }
        if (!standalone_prefetch(d, line, on_path, cycle)) break;
    }
    Py_DECREF(it);
    if (PyErr_Occurred()) d->error = ERR_CALLBACK;
}

/* The technique observes one demand access (stepper._standalone_prefetch):
 * EIP and MANA in C, a plug-in through its callback. */
static void technique_demand(Driver *d, int64_t line_addr, int hit, int on_path,
                             int64_t cycle) {
    const int64_t *lines;
    int64_t n;
    if (d->eip != NULL) {
        n = eip_access(d->eip, line_addr, hit, on_path);
        lines = d->eip->out;
    } else if (d->mana != NULL) {
        int64_t trained = d->mana->trained;
        n = mana_access(d->mana, line_addr);
        lines = d->mana->out;
        d->counters[DC_mana_replayed_lines] += n;
        d->counters[DC_mana_records_trained] += d->mana->trained - trained;
    } else {
        if (d->on_demand != NULL) callback_demand(d, line_addr, hit, on_path, cycle);
        return;
    }
    for (int64_t i = 0; i < n; i++) {
        if (!standalone_prefetch(d, lines[i], on_path, cycle)) break;
    }
}

/* ShadowBranchPrefiller.on_line_filled: predecode the filled line and
 * prefill the BTB with the direct branches it does not know, at most
 * shadow_budget of them. */
static void shadow_predecode(Driver *d, int64_t line_addr) {
    const ProgTables *P = d->prog;
    int64_t start = line_addr > P->code_start ? line_addr : P->code_start;
    int64_t end = line_addr < P->code_end - 64 ? line_addr + 64 : P->code_end;
    if (start >= end) return;  /* outside the code image */
    d->counters[DC_shadow_btb_lines_scanned]++;
    int64_t budget = d->shadow_budget;
    int64_t b = block_at(P, start);
    for (int64_t addr = start; addr < end; b++) {
        int64_t bend = block_end(P, b);
        int64_t kind = P->kind[b];
        int64_t pc = bend - 4;
        if (kind >= 0 && addr <= pc && pc < end && !IS_INDIRECT(kind)) {
            d->counters[DC_shadow_btb_branches_found]++;
            if (!btb_contains(d, pc)) {
                btb_fill(d, pc, kind, kind == K_RET ? 0 : P->target[b]);
                d->counters[DC_shadow_btb_prefills]++;
                if (--budget == 0) return;
            }
        }
        addr = bend;
    }
}

/* A plug-in fill observer sees one installed line; 0 when it raised. */
static int technique_fill(Driver *d, int64_t line_addr) {
    PyObject *arg = PyLong_FromLongLong(line_addr);
    PyObject *result = NULL;
    if (arg != NULL) {
        d->fill_calls++;
        result = PyObject_CallOneArg(d->on_fill, arg);
        Py_DECREF(arg);
    }
    if (result == NULL) {
        d->error = ERR_CALLBACK;
        return 0;
    }
    Py_DECREF(result);
    return 1;
}

/* ---- UDP (core/): useful-set, Seniority-FTQ, flush policy ---- */

static int bloom_contains(const Bloom *b, int64_t num_hashes, int64_t key) {
    for (int64_t i = 0; i < num_hashes; i++) {
        uint64_t pos = mix64((uint64_t)key ^ (uint64_t)b->seeds[i]) & (uint64_t)b->mask;
        if (!((b->bits[pos >> 3] >> (pos & 7)) & 1)) return 0;
    }
    return 1;
}

static void bloom_insert(Bloom *b, int64_t num_hashes, int64_t key) {
    for (int64_t i = 0; i < num_hashes; i++) {
        uint64_t pos = mix64((uint64_t)key ^ (uint64_t)b->seeds[i]) & (uint64_t)b->mask;
        b->bits[pos >> 3] |= (uint8_t)(1u << (pos & 7));
    }
    b->inserted++;
}

/* The infinite-storage byte for `line`; every line the exact set can
 * hold lies in the code region, so any other is an internal error. */
static uint8_t *exact_slot(Driver *d, int64_t line) {
    UdpState *u = d->udp;
    int64_t i = (line - u->exact_base) >> 6;
    if (line < u->exact_base || i >= u->exact_n) {
        d->error = ERR_UDP_LINE;
        d->error_pc = d->oracle_pc;
        return NULL;
    }
    return &u->exact[i];
}

/* Index of `line` in the FIFO `fifo[0..len)`, or -1. */
static inline int64_t fifo_find(const int64_t *fifo, int64_t len, int64_t line) {
    for (int64_t i = 0; i < len; i++) {
        if (fifo[i] == line) return i;
    }
    return -1;
}

static inline void fifo_remove(int64_t *fifo, int64_t *len, int64_t i) {
    memmove(fifo + i, fifo + i + 1, (size_t)(*len - i - 1) * sizeof(int64_t));
    (*len)--;
}

/* Move a buffered `line` to the young end (OrderedDict.move_to_end);
 * 0 when it is not buffered. */
static int fifo_refresh(int64_t *fifo, int64_t *len, int64_t line) {
    int64_t i = fifo_find(fifo, *len, line);
    if (i < 0) return 0;
    fifo_remove(fifo, len, i);
    fifo[(*len)++] = line;
    return 1;
}

/* UsefulSet.insert: the exact set, or the coalescing buffer in front of
 * the Bloom filters (CoalescingBuffer.insert/_extract_group). */
static void useful_insert(Driver *d, int64_t line) {
    UdpState *u = d->udp;
    if (u->infinite) {
        uint8_t *slot = exact_slot(d, line);
        if (slot != NULL) *slot = 1;
        return;
    }
    if (fifo_refresh(u->coal, &u->coal_len, line)) return;
    u->coal[u->coal_len++] = line;
    if (u->coal_len <= u->coal_cap) return;
    /* the oldest line leaves in the largest aligned group fully buffered */
    int64_t oldest = u->coal[0];
    fifo_remove(u->coal, &u->coal_len, 0);
    int k = u->use_superlines ? 2 : 0;
    for (; k > 0; k--) {
        int64_t base = oldest & ~((64LL << k) - 1);
        int64_t j = 0;
        for (; j < (1 << k); j++) {
            int64_t member = base + 64 * j;
            if (member != oldest && fifo_find(u->coal, u->coal_len, member) < 0) break;
        }
        if (j == (1 << k)) break;
    }
    int64_t base = k ? oldest & ~((64LL << k) - 1) : oldest;
    for (int64_t j = 0; j < (1 << k); j++) {
        int64_t at = fifo_find(u->coal, u->coal_len, base + 64 * j);
        if (at >= 0) fifo_remove(u->coal, &u->coal_len, at);
    }
    bloom_insert(&u->bloom[k], u->num_hashes, base);
    d->counters[DC_useful_set_insert_1 + k]++;
}

/* A line's bit in the mask over its aligned 4-line super-block. */
static inline int64_t line_bit(int64_t line) {
    return 1LL << ((line >> 6) & 3);
}

/* UsefulSet.query: the licensed lines as a line_bit mask, 0 when
 * unknown.  Only the filters are probed: a line still in the coalescing
 * buffer is not yet known. */
static int64_t useful_query(Driver *d, int64_t line) {
    UdpState *u = d->udp;
    if (u->infinite) {
        uint8_t *slot = exact_slot(d, line);
        return slot != NULL && *slot ? line_bit(line) : 0;
    }
    int64_t lines = 0;
    for (int k = 2; k >= 0; k--) {
        int64_t base = line & ~((64LL << k) - 1);
        if (bloom_contains(&u->bloom[k], u->num_hashes, base)) {
            d->counters[DC_useful_set_hit_1 + k]++;
            lines |= ((1LL << (1 << k)) - 1) * line_bit(base);
        }
    }
    return lines;
}

/* UsefulSet.on_prefetch_outcome: flush full filters when a 256-outcome
 * window was mostly unuseful. */
static void udp_outcome(Driver *d, int useful) {
    UdpState *u = d->udp;
    if (u == NULL) return;
    u->window_total++;
    if (!useful) u->window_unuseful++;
    if (u->window_total < 256) return;
    if ((double)u->window_unuseful / (double)u->window_total >= u->flush_ratio) {
        for (int k = 0; k < 3; k++) {
            Bloom *b = &u->bloom[k];
            if (b->inserted >= b->capacity) {
                memset(b->bits, 0, (size_t)((b->mask + 1) >> 3));
                b->inserted = 0;
                d->counters[DC_useful_set_flush_1 + k]++;
            }
        }
    }
    u->window_total = 0;
    u->window_unuseful = 0;
}

/* UDPFilter.on_demand_hit_off_path_prefetch */
static void udp_learn_direct(Driver *d, int64_t line) {
    useful_insert(d, line);
    d->counters[DC_udp_learned_useful_direct]++;
}

/* SeniorityFTQ.insert: refresh a known line, else evict the oldest. */
static void seniority_insert(UdpState *u, int64_t line) {
    if (fifo_refresh(u->sen, &u->sen_len, line)) return;
    if (u->sen_len >= u->sen_cap && u->sen_len > 0) {
        fifo_remove(u->sen, &u->sen_len, 0);
        u->sen_evicted++;
    }
    u->sen[u->sen_len++] = line;
    u->sen_inserted++;
}

/* UDPFilter.on_retire for the line of one on-path retired instruction. */
static void udp_on_retire(Driver *d, int64_t line) {
    UdpState *u = d->udp;
    int64_t i = fifo_find(u->sen, u->sen_len, line);
    if (i < 0) return;
    fifo_remove(u->sen, &u->sen_len, i);
    u->sen_matched++;
    useful_insert(d, line);
    d->counters[DC_udp_learned_useful]++;
}

/* UDPFilter.evaluate: the lines to emit for a candidate, as a
 * useful_query mask; 0 gates it off. */
static int64_t udp_evaluate(Driver *d, const FtqEntry *e, int64_t line) {
    UdpState *u = d->udp;
    if (!e->assumed_off_path) {
        d->counters[DC_udp_pass_on_path]++;
        return line_bit(line);
    }
    if (u->use_seniority) seniority_insert(u, line);
    int64_t lines = useful_query(d, line);
    if (lines == 0) {
        d->counters[DC_udp_drop_off_path]++;
        return 0;
    }
    d->counters[DC_udp_emit_off_path]++;
    if (lines & (lines - 1)) d->counters[DC_udp_superline_emits]++;
    return lines;
}

/* ---- the walker (frontend/bpu.py DecoupledFrontend) ---- */

/* Allocate a resteer slot; retired branches' stale slots are reclaimed. */
static int64_t resteer_alloc(Driver *d) {
    for (int pass = 0; pass < 2; pass++) {
        for (int64_t i = 0; i < RESTEER_POOL; i++) {
            if (d->resteers[i].state == RS_FREE) return i;
        }
        for (int64_t i = 0; i < RESTEER_POOL; i++) {
            Resteer *r = &d->resteers[i];
            if (r->state == RS_BACKEND && r->seq < d->be->rob_head) r->state = RS_FREE;
        }
    }
    d->error = ERR_RESTEER_POOL;
    return -1;
}

typedef struct {
    int64_t detected;
    int64_t taken;          /* predicted taken */
    int64_t target;         /* predicted target */
    int64_t tage;           /* a TAGE prediction is pending training */
    int64_t loop;           /* the loop predictor's override, -1 = none */
} Prediction;

/* DecoupledFrontend._predict for the branch at `pc` of kind `true_kind`:
 * returns the walker's next pc. */
static int64_t predict(Driver *d, int64_t pc, int64_t true_kind, Prediction *p) {
    int64_t g = btb_probe(d, pc);
    UdpState *u = d->udp;
    p->tage = 0;
    p->loop = -1;
    if (g < 0) {
        d->counters[DC_btb_gen_misses]++;
        if (u != NULL && true_kind == K_COND) {
            /* UDP: a tagged "taken" for a pc the BTB does not know forces
             * the off-path belief */
            tage_predict_impl(d->tage, pc);
            if (d->tage->out_taken && d->tage->out_provider >= 0) {
                u->forced = 1;
                d->counters[DC_udp_forced_off_path]++;
            }
        }
        p->detected = 0;
        p->taken = 0;
        p->target = 0;
        return pc + 4;
    }
    d->counters[DC_btb_gen_hits]++;
    int64_t kind = d->btb->kinds[g];
    p->detected = 1;
    p->taken = 1;
    p->target = d->btb->targets[g];
    if (kind == K_COND) {
        d->counters[DC_bpu_cond_predictions]++;
        tage_predict_impl(d->tage, pc);
        if (d->loop != NULL) {
            /* TAGE-SC-L's "L": a confident trip count overrides TAGE, and
             * TAGE then trains against the overridden direction */
            p->loop = loop_predict(d->loop, pc);
            if (p->loop >= 0) {
                d->tage->out_taken = p->loop;
                d->counters[DC_bpu_loop_overrides]++;
            }
        }
        p->taken = d->tage->out_taken;
        p->tage = 1;
        if (u != NULL) {
            int64_t confidence = d->tage->out_confidence;
            u->conf_counter += u->incr[confidence];
            d->counters[DC_udp_conf_0 + confidence]++;
        }
    } else if (kind == K_RET) {
        d->counters[DC_bpu_return_predictions]++;
        if (d->ras_len == 0) {
            d->ras_underflows++;
            p->taken = 0;
            p->target = 0;
        } else {
            p->target = d->ras[--d->ras_len];
        }
    } else if (IS_INDIRECT(kind)) {
        d->counters[DC_bpu_indirect_predictions]++;
        int64_t mixed = ibtb_mixed(d, pc);
        int64_t target = ibtb_predict_impl(d->ibtb, mixed % d->ibtb->num_sets, mixed);
        if (target >= 0) p->target = target;
    }
    if (IS_CALL(kind) && p->taken) ras_push(d, pc + 4);
    return p->taken ? p->target : pc + 4;
}

/* DecoupledFrontend._shadow_oracle: train with the truth and open a
 * divergence on mismatch.  Returns the new resteer slot or -1. */
static int64_t shadow_oracle(Driver *d, int64_t b, const Prediction *p, int64_t walker_next) {
    const ProgTables *P = d->prog;
    int64_t pc = block_end(P, b) - 4;
    int64_t kind = P->kind[b];
    if (d->oracle_pc != P->addr[b]) {
        d->error = ERR_ORACLE_SYNC;
        d->error_pc = d->oracle_pc;
        return -1;
    }
    int64_t taken;
    int64_t true_next = oracle_truth(d, b, &taken);
    int64_t diverges = walker_next != true_next;

    if (p->detected && kind == K_COND && p->tage) {
        if (d->tage->out_taken != taken) d->counters[DC_bpu_cond_mispredicts]++;
        tage_update_impl(d->tage, pc, taken);
        if (d->loop != NULL) loop_update(d->loop, pc, taken, p->loop);
    }
    if (IS_INDIRECT(kind)) train_indirect(d, pc, kind, true_next);

    int64_t slot = -1;
    if (diverges) {
        slot = resteer_alloc(d);
        if (slot < 0) return -1;
    }
    int64_t *image = slot >= 0 ? d->resteers[slot].hist : NULL;
    if (kind == K_COND) {
        if (diverges) {
            /* BranchPredictionUnit.divergence_checkpoint: the history as it
             * will be once the branch resolves with its true outcome. */
            hist_save(d, image);
            hist_push_into(d->hist, (uint64_t *)image, image + d->hist_words, taken);
        }
        if (p->detected) hist_push_into(d->hist, d->hist->words, d->hist->folded, p->taken);
    } else if (diverges) {
        hist_save(d, image);
    }

    oracle_advance(d, b, true_next);
    if (!diverges) return -1;

    Resteer *r = &d->resteers[slot];
    if (!p->detected) {
        int direct = kind == K_COND || kind == K_JUMP || kind == K_CALL;
        r->stage = direct && d->pfc ? STAGE_DECODE : STAGE_EXECUTE;
        r->cause = CAUSE_BTB_MISS;
    } else {
        r->stage = STAGE_EXECUTE;
        r->cause = kind == K_COND ? CAUSE_COND : (kind == K_RET ? CAUSE_RAS : CAUSE_INDIRECT);
    }
    r->state = RS_FTQ;
    r->seq = -1;
    r->branch_pc = pc;
    r->resume_pc = true_next;
    d->diverged = 1;
    d->pending = slot;
    d->counters[DC_divergence_btb_miss + r->cause]++;
    return slot;
}

static inline void copy_ops(const ProgTables *P, FtqEntry *e, int64_t lo, int64_t hi) {
    for (int64_t pc = lo; pc < hi; pc += 4) {
        e->ops[(pc - e->start) >> 2] = P->ops[(pc - P->code_start) >> 2];
    }
}

/* DecoupledFrontend._walk_block into FTQ entry `e`. */
static void walk_block(Driver *d, FtqEntry *e) {
    const ProgTables *P = d->prog;
    int64_t start = wrap_pc(P, d->spec_pc);
    int64_t region_end = (start & FB_MASK) + 32;
    int started_on_path = !d->diverged;
    int64_t diverged_at = -1;
    e->seq = d->next_seq++;
    e->start = start;
    e->line_addr = start & LINE_MASK;
    e->ready_cycle = -1;
    e->decode_offset = 0;
    e->resteer = -1;
    e->assumed_off_path = d->udp != NULL
                          && (d->udp->forced || d->udp->conf_counter > d->udp->threshold);
    for (int i = 0; i < FB_INSTRS; i++) e->br_block[i] = -1;

    int64_t cur = start;
    int64_t b = block_at(P, cur);
    while (cur < region_end) {
        if (cur >= P->code_end) {
            region_end = cur;
            break;
        }
        int64_t bend = block_end(P, b);
        int64_t seg_end = bend < region_end ? bend : region_end;
        int64_t br_pc = bend - 4;
        if (P->kind[b] < 0 || !(cur <= br_pc && br_pc < seg_end)) {
            copy_ops(P, e, cur, seg_end);
            if (seg_end == bend && !d->diverged) {
                /* a completed fall-through block: the oracle's branchless advance */
                d->oracle_pc = bend;
                d->blocks_walked++;
                d->instrs_walked += P->ninstr[b];
            }
            cur = seg_end;
            b++;
            continue;
        }
        copy_ops(P, e, cur, br_pc + 4);
        Prediction p;
        int64_t walker_next = predict(d, br_pc, P->kind[b], &p);
        int64_t off = (br_pc - start) >> 2;
        e->br_block[off] = (int32_t)b;
        e->br_detected[off] = (uint8_t)p.detected;
        if (!d->diverged) {
            int64_t slot = shadow_oracle(d, b, &p, walker_next);
            if (d->error) return;
            if (slot >= 0) {
                e->resteer = slot;
                diverged_at = br_pc;
            }
        } else if (p.detected && P->kind[b] == K_COND) {
            /* wrong-path conditional: speculative history still advances */
            hist_push_into(d->hist, d->hist->words, d->hist->folded, p.taken);
        }
        if (p.taken) {
            region_end = br_pc + 4;
            d->spec_pc = p.target;
            goto finalize;
        }
        cur = br_pc + 4;
        b++;
    }
    d->spec_pc = region_end;
finalize:
    e->end = region_end;
    if (!started_on_path) {
        e->on_path = 0;
        e->on_path_instrs = 0;
    } else {
        e->on_path = 1;
        e->on_path_instrs = diverged_at >= 0 ? (diverged_at + 4 - start) >> 2
                                             : (region_end - start) >> 2;
    }
}

/* DecoupledFrontend.generate */
static void generate(Driver *d) {
    for (int64_t i = 0; i < d->blocks_per_cycle; i++) {
        if (d->ftq_len >= d->ftq_depth) {
            d->counters[DC_ftq_full_cycles_blocks]++;
            break;
        }
        FtqEntry *e = ftq_at(d, d->ftq_len);
        walk_block(d, e);
        if (d->error) return;
        d->ftq_len++;
        d->counters[e->on_path ? DC_ftq_blocks_on_path : DC_ftq_blocks_off_path]++;
    }
}

/* ---- resteer / recovery (stepper._resteer, frontend.recover) ---- */

static void do_resteer(Driver *d, int64_t slot, int64_t squash_seq) {
    Resteer *r = &d->resteers[slot];
    if (squash_seq >= 0) {
        d->counters[DC_backend_squashed_uops] += be_squash_impl(d->be, squash_seq);
        for (int64_t i = 0; i < RESTEER_POOL; i++) {
            Resteer *o = &d->resteers[i];
            if (o->state == RS_BACKEND && o->seq > squash_seq) o->state = RS_FREE;
        }
    }
    d->spec_pc = r->resume_pc;
    d->diverged = 0;
    d->pending = -1;
    hist_restore(d, r->hist);
    ras_repair(d);
    if (d->loop != NULL) {
        /* LoopPredictor.reset_speculation */
        memset(d->loop->current, 0, (size_t)(d->loop->mask + 1) * sizeof(int64_t));
    }
    if (d->udp != NULL) {
        d->udp->conf_counter = 0;
        d->udp->forced = 0;
    }
    d->counters[DC_bpu_recoveries]++;
    d->counters[DC_resteers]++;
    d->counters[DC_resteer_btb_miss + r->cause]++;
    d->counters[DC_resteer_at_decode + r->stage]++;
    ftq_flush(d);
    r->state = RS_FREE;
    d->next_scan_seq = d->next_seq;
}

/* ---- fills (stepper.process_fills) ---- */

/* stepper._on_l1i_eviction for the victim of the last L1I install. */
static void l1i_evicted(Driver *d) {
    CacheDesc *c = d->l1i;
    if (c->evict_addr < 0 || !(c->evict_flags & FLAG_PREFETCH)) return;
    d->counters[DC_prefetch_useless]++;
    d->counters[(c->evict_flags & FLAG_OFF_PATH) ? DC_prefetch_useless_off_path
                                                 : DC_prefetch_useless_on_path]++;
    if (d->on_uftq != NULL) {
        uftq_event(d, UFTQ_USELESS);
        if (d->error) return;
    }
    udp_outcome(d, 0);
}

static void process_fills(Driver *d, int64_t cycle) {
    while (d->mshr_ready <= cycle) {
        MshrEntry fill = mshr_pop(d);
        int64_t keep_prefetch = fill.is_prefetch && !fill.demand_on_path;
        int64_t flags = (keep_prefetch ? FLAG_PREFETCH : 0) | (fill.off_path ? FLAG_OFF_PATH : 0)
                        | (fill.udp_candidate ? FLAG_UDP : 0);
        cache_install_impl(d->l1i, fill.line_addr, flags);
        l1i_evicted(d);
        if (d->error) return;
        d->counters[DC_l1i_fills]++;
        if (d->shadow_budget > 0) {
            shadow_predecode(d, fill.line_addr);
        } else if (d->on_fill != NULL && !technique_fill(d, fill.line_addr)) {
            return;
        }
    }
}

/* ---- backend (BackendCoreC.retire_and_issue, MemoryHierarchyC) ---- */

static void replay_fill_counts(Driver *d) {
    HierDesc *h = d->hier;
    d->counters[DC_l2_data_hits] += h->n_l2_data;
    d->counters[DC_llc_data_hits] += h->n_llc_data;
    d->counters[DC_dram_data_fills] += h->n_dram_data;
    d->counters[DC_stream_prefetches] += h->n_stream_pf;
}

/* MemoryHierarchyC.load_latency, its counters included. */
static int64_t data_load(Driver *d, int64_t addr) {
    int64_t latency = hier_load_impl(d->hier, addr);
    d->counters[DC_l1d_accesses]++;
    if (d->hier->n_l1d_hit) {
        d->counters[DC_l1d_hits]++;
    } else {
        d->counters[DC_l1d_misses]++;
        replay_fill_counts(d);
    }
    return latency;
}

/* MemoryHierarchyC.store_access, its counters included. */
static void data_store(Driver *d, int64_t addr) {
    hier_store_impl(d->hier, addr);
    d->counters[DC_l1d_stores]++;
    if (!d->hier->n_l1d_hit) replay_fill_counts(d);
}

static void retire_and_issue(Driver *d, int64_t cycle) {
    BackendDesc *be = d->be;
    int64_t packed = be_retire_impl(be, cycle);
    d->counters[DC_wrong_path_retired] += packed >> 32;
    /* UDP's retire hook (hook_active): a run of pcs in one line matches
     * the Seniority-FTQ at most once, so each run is looked up once. */
    int64_t hook_n = packed & 0xFFFFFFFF;
    int64_t last_line = -1;
    for (int64_t i = 0; i < hook_n; i++) {
        int64_t line = be->out_retired[i] & LINE_MASK;
        if (line != last_line) udp_on_retire(d, line);
        last_line = line;
    }
    int64_t n_mem = be_issue_impl(be, cycle);
    for (int64_t i = 0; i < n_mem; i++) {
        int64_t slot = be->out_mem[2 * i] & be->cap_mask;
        if (be->out_mem[2 * i + 1]) {
            data_store(d, be->addr[slot]);
        } else {
            be->complete_cycle[slot] = cycle + data_load(d, be->addr[slot]);
        }
    }
}

/* ---- fetch / decode (stepper.fetch_decode and friends) ---- */

static void prefetch_useful(Driver *d, int64_t off_path, int timely) {
    d->counters[DC_prefetch_useful]++;
    d->counters[off_path ? DC_prefetch_useful_off_path : DC_prefetch_useful_on_path]++;
    d->counters[timely ? DC_atr_icache_hits : DC_atr_mshr_hits]++;
    if (d->on_uftq != NULL) {
        uftq_event(d, timely ? UFTQ_USEFUL_TIMELY : UFTQ_USEFUL_LATE);
        if (d->error) return;
    }
    udp_outcome(d, 1);
}

/* stepper._demand_access */
static void demand_access(Driver *d, FtqEntry *e, int64_t cycle) {
    int64_t line_addr = e->line_addr;
    d->counters[DC_icache_demand_accesses]++;
    int64_t g = cache_lookup_impl(d->l1i, line_addr, 1);
    if (g >= 0) {
        d->counters[DC_icache_demand_hits]++;
        e->ready_cycle = cycle;
        int64_t flags = d->l1i->flags[g];
        if ((flags & FLAG_PREFETCH) && e->on_path) {
            d->l1i->flags[g] = flags & ~FLAG_PREFETCH;
            prefetch_useful(d, flags & FLAG_OFF_PATH, 1);
            if (d->error) return;
            if (d->udp != NULL && (flags & FLAG_UDP)) udp_learn_direct(d, line_addr);
        }
        technique_demand(d, line_addr, 1, e->on_path, cycle);
        return;
    }
    MshrEntry *m = mshr_lookup(d, line_addr);
    if (m != NULL) {
        d->counters[DC_icache_demand_mshr_merges]++;
        e->ready_cycle = m->ready_cycle;
        if (m->is_prefetch && e->on_path && !m->demand_on_path) {
            prefetch_useful(d, m->off_path, 0);
            if (d->error) return;
            if (d->udp != NULL && m->udp_candidate) udp_learn_direct(d, line_addr);
        }
        if (e->on_path) m->demand_on_path = 1;
        return;
    }
    d->counters[DC_icache_demand_misses]++;
    d->counters[e->on_path ? DC_icache_demand_misses_on_path : DC_icache_demand_misses_off_path]++;
    if (d->on_uftq != NULL && e->on_path) {
        /* the strongest untimeliness signal: no prefetch arrived at all */
        uftq_event(d, UFTQ_DEMAND_MISS);
        if (d->error) return;
    }
    if (d->mshr_count >= d->mshr_cap) {
        d->counters[DC_icache_mshr_full_stalls]++;
        return;
    }
    int64_t latency = imiss(d, line_addr, DC_demand_fill_l2);
    mshr_allocate(d, line_addr, cycle + latency, 0, !e->on_path, 0);
    e->ready_cycle = cycle + latency;
    technique_demand(d, line_addr, 0, e->on_path, cycle);
}

/* stepper._dispatch_branch: 0, or -1 when a decode-time resteer fired. */
static int dispatch_branch(Driver *d, FtqEntry *e, int64_t off, int64_t pc,
                           int64_t on_path, int64_t cycle) {
    const ProgTables *P = d->prog;
    int64_t b = e->br_block[off];
    int64_t kind = P->kind[b];
    int64_t detected = e->br_detected[off];
    if (!detected && !IS_INDIRECT(kind)) {
        /* decode-time discovery fills the BTB (direct kinds only) */
        btb_fill(d, pc, kind, kind != K_RET ? P->target[b] : 0);
        d->counters[DC_btb_decode_fills]++;
    }
    int64_t slot = e->resteer;
    if (slot >= 0 && d->resteers[slot].branch_pc == pc) {
        Resteer *r = &d->resteers[slot];
        if (r->stage == STAGE_EXECUTE) {
            r->seq = dispatch_one(d->be, pc, OP_BRANCH, on_path, cycle, 1);
            r->state = RS_BACKEND;
            return 0;
        }
        /* post-fetch correction: the undetected taken branch resteers now */
        dispatch_one(d->be, pc, OP_BRANCH, on_path, cycle, 0);
        do_resteer(d, slot, -1);
        d->counters[DC_pfc_resteers]++;
        return -1;
    }
    dispatch_one(d->be, pc, OP_BRANCH, on_path, cycle, 0);
    if (!detected && !on_path && (kind == K_JUMP || kind == K_CALL) && d->pfc) {
        /* wrong-path PFC: redirect the (still wrong-path) frontend */
        ftq_flush(d);
        d->spec_pc = P->target[b];
        d->counters[DC_wrong_path_pfc_redirects]++;
        d->next_scan_seq = d->next_seq;
        return -1;
    }
    return 0;
}

/* stepper._dispatch_entry: the remaining budget, -1 on a decode resteer. */
static int64_t dispatch_entry(Driver *d, FtqEntry *e, int64_t cycle, int64_t budget) {
    int64_t n = (e->end - e->start) >> 2;
    while (budget > 0 && e->decode_offset < n) {
        if (!can_dispatch(d->be)) {
            d->counters[DC_dispatch_stall_backend_full]++;
            return 0;
        }
        int64_t off = e->decode_offset;
        int64_t pc = e->start + off * 4;
        int64_t on_path = e->on_path && off < e->on_path_instrs;
        e->decode_offset++;
        budget--;
        d->counters[DC_dispatched_instructions]++;
        if (e->br_block[off] < 0) {
            dispatch_one(d->be, pc, e->ops[off], on_path, cycle, 0);
            continue;
        }
        if (dispatch_branch(d, e, off, pc, on_path, cycle) < 0) return -1;
    }
    return budget;
}

static void fetch_decode(Driver *d, int64_t cycle) {
    int64_t budget = d->width;
    int64_t accesses = 0;
    while (budget > 0) {
        if (d->ftq_len == 0) {
            d->counters[DC_fetch_slots_lost_empty_ftq] += budget;
            return;
        }
        FtqEntry *e = ftq_at(d, 0);
        if (e->ready_cycle < 0) {
            if (d->perfect_icache) {
                e->ready_cycle = cycle;
                d->counters[DC_icache_demand_accesses]++;
                d->counters[DC_icache_demand_hits]++;
            } else {
                if (accesses >= d->blocks_per_cycle) return;
                accesses++;
                demand_access(d, e, cycle);
                if (d->error) return;
                if (e->ready_cycle < 0) {
                    d->counters[DC_fetch_slots_lost_mshr_full] += budget;
                    return;
                }
            }
        }
        if (e->ready_cycle > cycle) {
            d->counters[DC_fetch_slots_lost_icache] += budget;
            d->counters[DC_fetch_stall_icache_cycles]++;
            return;
        }
        int64_t seq = e->seq;
        budget = dispatch_entry(d, e, cycle, budget);
        if (budget < 0) return;
        if (e->decode_offset >= (e->end - e->start) >> 2 && d->ftq_len > 0
            && ftq_at(d, 0)->seq == seq) {
            d->ftq_head = d->ftq_head + 1 < d->ftq_cap ? d->ftq_head + 1 : 0;
            d->ftq_len--;
        }
    }
}

/* ---- FDIP (frontend/fdip.py FDIPEngine.scan) ---- */

/* FDIPEngine._emit */
static void emit_prefetch(Driver *d, const FtqEntry *e, int64_t line_addr, int64_t cycle) {
    int64_t base;
    if (cache_find(d->l1i, line_addr, &base) >= 0 || mshr_lookup(d, line_addr) != NULL) return;
    if (d->mshr_count >= d->mshr_cap) {
        d->counters[DC_fdip_drop_mshr_full]++;
        return;
    }
    int64_t latency = imiss(d, line_addr, DC_prefetch_fill_l2);
    mshr_allocate(d, line_addr, cycle + latency, 1, !e->on_path, e->assumed_off_path);
    d->counters[DC_prefetches_emitted]++;
    d->counters[e->on_path ? DC_prefetches_emitted_on_path : DC_prefetches_emitted_off_path]++;
}

static void fdip_scan(Driver *d, int64_t cycle) {
    if (!d->fdip_enabled || d->perfect_icache || d->ftq_len == 0) return;
    int64_t head_seq = ftq_at(d, 0)->seq;
    if (d->next_scan_seq < head_seq) d->next_scan_seq = head_seq;
    for (int64_t i = 0; i < d->fdip_lookups; i++) {
        int64_t index = d->next_scan_seq - head_seq;
        if (index >= d->ftq_len) return;
        FtqEntry *e = ftq_at(d, index);
        d->next_scan_seq++;
        int64_t line_addr = e->line_addr;
        int64_t base;
        if (cache_find(d->l1i, line_addr, &base) >= 0) {
            d->counters[DC_fdip_probe_resident]++;
            continue;
        }
        if (mshr_lookup(d, line_addr) != NULL) {
            d->counters[DC_fdip_probe_inflight]++;
            continue;
        }
        d->counters[DC_fdip_candidates]++;
        d->counters[e->on_path ? DC_fdip_candidates_on_path : DC_fdip_candidates_off_path]++;
        if (d->udp == NULL) {
            emit_prefetch(d, e, line_addr, cycle);
            continue;
        }
        int64_t lines = udp_evaluate(d, e, line_addr);
        if (lines == 0) {
            d->counters[DC_fdip_gated_drops]++;
            continue;
        }
        /* the candidate first, then the rest of its super-block in order */
        emit_prefetch(d, e, line_addr, cycle);
        int64_t block = line_addr & ~255LL;
        for (int64_t j = 0; j < 4; j++) {
            if (((lines >> j) & 1) && block + 64 * j != line_addr) {
                emit_prefetch(d, e, block + 64 * j, cycle);
            }
        }
    }
}

/* ---- the cycle loop (stepper.step) ---- */

static inline void sample_occupancy(Driver *d, int64_t cycles) {
    d->occ_sum += d->ftq_len * cycles;
    d->occ_samples += cycles;
}

/* stepper.try_fast_forward */
static void try_fast_forward(Driver *d) {
    if (d->ftq_len == 0 || d->ftq_len < d->ftq_depth) return;
    FtqEntry *head = ftq_at(d, 0);
    int64_t cycle = d->cycle;
    int64_t ready = head->ready_cycle;
    if (ready <= cycle + 1) return;
    if (d->fdip_enabled && !d->perfect_icache && d->next_scan_seq - head->seq < d->ftq_len) {
        return;
    }
    int64_t backend_event = be_next_event_impl(d->be, cycle);
    if (backend_event != NO_EVENT && backend_event <= cycle + 1) return;
    int64_t target = ready;
    int64_t mshr_ready = mshr_next_ready(d);
    if (mshr_ready >= 0 && mshr_ready < target) target = mshr_ready;
    if (backend_event != NO_EVENT && backend_event < target) target = backend_event;
    if (target > d->max_cycles) target = d->max_cycles;
    int64_t skipped = target - cycle - 1;
    if (skipped <= 0) return;
    d->counters[DC_fetch_stall_icache_cycles] += skipped;
    d->counters[DC_fetch_slots_lost_icache] += skipped * d->width;
    d->counters[DC_ftq_full_cycles_blocks] += skipped;
    sample_occupancy(d, skipped);
    d->cycle = cycle + skipped;
    d->ff_skipped += skipped;
    d->ff_jumps++;
}

/* stepper.try_refill_step */
static int try_refill_step(Driver *d) {
    if (d->ftq_len >= d->ftq_depth || d->ftq_len == 0) return 0;
    FtqEntry *head = ftq_at(d, 0);
    int64_t cycle = d->cycle + 1;
    if (head->ready_cycle < 0 || head->ready_cycle <= cycle) return 0;
    int64_t mshr_ready = mshr_next_ready(d);
    if (mshr_ready >= 0 && mshr_ready <= cycle) return 0;
    int64_t backend_event = be_next_event_impl(d->be, d->cycle);
    if (backend_event != NO_EVENT && backend_event <= cycle) return 0;
    d->steps++;
    d->cycle = cycle;
    d->counters[DC_fetch_slots_lost_icache] += d->width;
    d->counters[DC_fetch_stall_icache_cycles]++;
    fdip_scan(d, cycle);
    generate(d);
    sample_occupancy(d, 1);
    return 1;
}

static void step(Driver *d) {
    try_fast_forward(d);
    if (try_refill_step(d)) return;
    d->steps++;
    int64_t cycle = ++d->cycle;
    process_fills(d, cycle);
    if (d->error) return;
    int64_t fired = be_poll_impl(d->be, cycle);
    if (fired >= 0) {
        int64_t slot = -1;
        for (int64_t i = 0; i < RESTEER_POOL; i++) {
            if (d->resteers[i].state == RS_BACKEND && d->resteers[i].seq == fired) slot = i;
        }
        if (slot < 0) {
            d->error = ERR_RESTEER_LOST;
            return;
        }
        do_resteer(d, slot, fired);
    }
    retire_and_issue(d, cycle);
    fetch_decode(d, cycle);
    if (d->error) return;
    fdip_scan(d, cycle);
    generate(d);
    sample_occupancy(d, 1);
}

static void setup(Driver *d) {
    int64_t words = hist_image_words(d);
    for (int64_t i = 0; i < RESTEER_POOL; i++) {
        d->resteers[i].state = RS_FREE;
        d->resteers[i].hist = d->resteer_hist + i * words;
    }
    d->ftq_head = d->ftq_len = d->mshr_count = 0;
    d->mshr_ready = NO_FILL;
    d->pending = -1;
    d->be->hook_active = d->udp != NULL && d->udp->use_seniority;
    d->ready = 1;
}

/* run_cycles(driver, retire_target, stop): step until `retire_target`
 * instructions have retired (RUN_DONE), the retired count reaches `stop`
 * right after a step (RUN_STOP, the warmup boundary), or the cycle limit
 * is hit before a step (RUN_LIMIT); negative on an internal error.  A
 * technique callback that raises (a signal handler running inside it
 * included) ends the call mid-step with its exception. */
static PyObject *k_run_cycles(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_RUN_CYCLES]++;
    Driver *d = (Driver *)arg_ptr(args, 0);
    int64_t target = arg_i64(args, 1);
    int64_t stop = arg_i64(args, 2);
    if (PyErr_Occurred()) return NULL;
    if (!d->ready) setup(d);
    BackendDesc *be = d->be;
    int64_t status = RUN_DONE;
    int64_t steps = 0;
    while (be->retired_instructions < target) {
        if (d->cycle >= d->max_cycles) {
            status = RUN_LIMIT;
            break;
        }
        /* Python-level signal handlers (Ctrl-C, the engine's unit-timeout
         * alarm) run here, between whole steps, and inside technique
         * callbacks. */
        if ((++steps & 4095) == 0 && PyErr_CheckSignals() < 0) return NULL;
        step(d);
        if (d->error == ERR_CALLBACK) {
            d->error = 0;
            return NULL;
        }
        if (d->error) {
            status = d->error;
            break;
        }
        if (be->retired_instructions >= stop) {
            status = RUN_STOP;
            break;
        }
    }
    return PyLong_FromLongLong(status);
}

/* ---- the functional walk (stepper.walk_true_path) ---- */

#define WALK_WARM 1         /* replay the walked blocks' loads and stores */
#define WALK_FIRST_TOUCH 2  /* dedupe useful-set inserts per call, not by membership */

/* stepper._useful_set_holds: the coalescing buffer, then the 4/2/1
 * filters (or the exact set), without bumping any hit counter. */
static int useful_holds(Driver *d, int64_t line) {
    UdpState *u = d->udp;
    if (u->infinite) {
        uint8_t *slot = exact_slot(d, line);
        return slot != NULL && *slot;
    }
    if (fifo_find(u->coal, u->coal_len, line) >= 0) return 1;
    for (int k = 2; k >= 0; k--) {
        if (bloom_contains(&u->bloom[k], u->num_hashes, line & ~((64LL << k) - 1))) return 1;
    }
    return 0;
}

/* stepper._train_functional_branch for the branch ending block `b`. */
static void train_branch(Driver *d, int64_t b, int64_t taken, int64_t next_pc) {
    const ProgTables *P = d->prog;
    int64_t pc = block_end(P, b) - 4;
    int64_t kind = P->kind[b];
    if (kind == K_COND) {
        tage_predict_impl(d->tage, pc);
        tage_update_impl(d->tage, pc, taken);
        hist_push_into(d->hist, d->hist->words, d->hist->folded, taken);
        btb_fill(d, pc, kind, P->target[b]);
    } else if (IS_INDIRECT(kind)) {
        train_indirect(d, pc, kind, next_pc);
    } else {
        btb_fill(d, pc, kind, kind == K_RET ? 0 : P->target[b]);
    }
}

/* The warm data replay: block `b`'s loads and stores in op order, their
 * addresses drawn from the generator the measured region continues. */
static void replay_data(Driver *d, int64_t b) {
    const ProgTables *P = d->prog;
    int64_t pc = P->addr[b];
    const uint8_t *ops = P->ops + ((pc - P->code_start) >> 2);
    for (int64_t i = 0; i < P->ninstr[b]; i++, pc += 4) {
        if (ops[i] == OPC_LOAD) {
            data_load(d, data_next_impl(d->be->data, pc));
        } else if (ops[i] == OPC_STORE) {
            data_store(d, data_next_impl(d->be->data, pc));
        }
    }
}

/* functional_walk(driver, max_blocks, target, flags): walk the true path
 * until `max_blocks` blocks are walked or the walked instruction count
 * reaches `target` at a block boundary.  Per block: every line through
 * the L1I (contains -> miss path -> install) and into the useful-set
 * unless already there, the warm data replay, then the branch training
 * and the oracle advance.  Returns 0, or negative on an internal error
 * (ERR_ORACLE_SYNC: the oracle pc is not a block start); a signal
 * handler that raises ends the walk between blocks, and a raising UFTQ
 * callback (an evicted prefetched line) at once, with the exception.
 * The state walked so far is in the structures either way. */
static PyObject *k_functional_walk(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_FUNCTIONAL_WALK]++;
    Driver *d = (Driver *)arg_ptr(args, 0);
    int64_t max_blocks = arg_i64(args, 1);
    int64_t target = arg_i64(args, 2);
    int64_t flags = arg_i64(args, 3);
    if (PyErr_Occurred()) return NULL;
    const ProgTables *P = d->prog;
    UdpState *u = d->udp;
    uint8_t *first_touch = NULL;  /* this call's inserted lines, per code line */
    if (u != NULL && (flags & WALK_FIRST_TOUCH)) {
        first_touch = PyMem_Calloc((size_t)u->exact_n, 1);
        if (first_touch == NULL) return PyErr_NoMemory();
    }
    d->error = 0;
    for (int64_t walked = 0; walked < max_blocks && d->instrs_walked < target; walked++) {
        if ((walked & 4095) == 4095 && PyErr_CheckSignals() < 0) {
            PyMem_Free(first_touch);
            return NULL;
        }
        int64_t pc = d->oracle_pc;
        int64_t b = block_at(P, wrap_pc(P, pc));
        if (P->addr[b] != pc) {
            d->error = ERR_ORACLE_SYNC;
            d->error_pc = pc;
            break;
        }
        int64_t end = block_end(P, b);
        for (int64_t line = P->addr[b] & LINE_MASK; line < end && !d->error; line += 64) {
            int64_t base;
            if (cache_find(d->l1i, line, &base) < 0) imiss(d, line, -1);  /* fills L2/LLC */
            cache_install_impl(d->l1i, line, 0);
            l1i_evicted(d);
            if (d->error || u == NULL) continue;
            if (first_touch != NULL) {
                uint8_t *seen = &first_touch[(line - u->exact_base) >> 6];
                if (*seen) continue;
                *seen = 1;
            } else if (useful_holds(d, line)) {
                continue;
            }
            useful_insert(d, line);
        }
        if (d->error) break;
        if (flags & WALK_WARM) replay_data(d, b);
        if (P->kind[b] < 0) {
            d->oracle_pc = end;
            d->blocks_walked++;
            d->instrs_walked += P->ninstr[b];
            continue;
        }
        int64_t taken;
        int64_t next_pc = oracle_truth(d, b, &taken);
        train_branch(d, b, taken, next_pc);
        oracle_advance(d, b, next_pc);
    }
    PyMem_Free(first_touch);
    if (d->error == ERR_CALLBACK) return NULL;
    return PyLong_FromLongLong(d->error);
}

/* Field offsets (in int64 words) of the descriptors Python fills in. */
#define FIELD(type, name) {#name, offsetof(type, name) / 8},
typedef struct { const char *name; size_t word; } FieldInfo;

static const FieldInfo DRIVER_FIELDS[] = {
    FIELD(Driver, cycle) FIELD(Driver, steps) FIELD(Driver, ff_jumps)
    FIELD(Driver, ff_skipped) FIELD(Driver, occ_sum) FIELD(Driver, occ_samples)
    FIELD(Driver, ftq_depth) FIELD(Driver, oracle_pc) FIELD(Driver, blocks_walked)
    FIELD(Driver, instrs_walked) FIELD(Driver, cs_len) FIELD(Driver, spec_pc)
    FIELD(Driver, next_seq) FIELD(Driver, diverged) FIELD(Driver, next_scan_seq)
    FIELD(Driver, ras_len) FIELD(Driver, ras_overflows) FIELD(Driver, ras_underflows)
    FIELD(Driver, error_pc) FIELD(Driver, demand_calls)
    FIELD(Driver, fill_calls) FIELD(Driver, btb_promotions)
    FIELD(Driver, width) FIELD(Driver, blocks_per_cycle) FIELD(Driver, fdip_lookups)
    FIELD(Driver, fdip_enabled) FIELD(Driver, perfect_icache) FIELD(Driver, pfc)
    FIELD(Driver, max_cycles) FIELD(Driver, mshr_cap) FIELD(Driver, ftq_cap)
    FIELD(Driver, ras_cap) FIELD(Driver, max_stack) FIELD(Driver, ibtb_hist_bits)
    FIELD(Driver, hist_words)
    FIELD(Driver, btb) FIELD(Driver, btb2) FIELD(Driver, loop) FIELD(Driver, ibtb)
    FIELD(Driver, tage) FIELD(Driver, hist) FIELD(Driver, l1i) FIELD(Driver, hier)
    FIELD(Driver, be) FIELD(Driver, prog) FIELD(Driver, udp) FIELD(Driver, on_demand)
    FIELD(Driver, on_fill) FIELD(Driver, reject) FIELD(Driver, on_uftq)
    FIELD(Driver, eip) FIELD(Driver, mana) FIELD(Driver, shadow_budget)
    FIELD(Driver, counters) FIELD(Driver, occ) FIELD(Driver, call_stack) FIELD(Driver, ras)
    FIELD(Driver, ftq) FIELD(Driver, mshr) FIELD(Driver, resteers)
    FIELD(Driver, resteer_hist)
    {NULL, 0},
};

static const FieldInfo PROG_FIELDS[] = {
    FIELD(ProgTables, n_blocks) FIELD(ProgTables, code_start)
    FIELD(ProgTables, code_end) FIELD(ProgTables, entry) FIELD(ProgTables, addr)
    FIELD(ProgTables, ninstr) FIELD(ProgTables, ops) FIELD(ProgTables, kind)
    FIELD(ProgTables, target) FIELD(ProgTables, behavior)
    FIELD(ProgTables, targets_off) FIELD(ProgTables, targets_n)
    FIELD(ProgTables, targets) FIELD(ProgTables, node_kind)
    FIELD(ProgTables, node_seed) FIELD(ProgTables, node_f) FIELD(ProgTables, node_a)
    FIELD(ProgTables, node_b) FIELD(ProgTables, node_c)
    FIELD(ProgTables, line_base) FIELD(ProgTables, n_lines) FIELD(ProgTables, line_block)
    {NULL, 0},
};

static const FieldInfo UDP_FIELDS[] = {
    FIELD(UdpState, conf_counter) FIELD(UdpState, forced)
    FIELD(UdpState, window_unuseful) FIELD(UdpState, window_total)
    FIELD(UdpState, coal_len) FIELD(UdpState, sen_len) FIELD(UdpState, sen_inserted)
    FIELD(UdpState, sen_matched) FIELD(UdpState, sen_evicted)
    FIELD(UdpState, threshold) FIELD(UdpState, incr) FIELD(UdpState, use_seniority)
    FIELD(UdpState, use_superlines) FIELD(UdpState, infinite) FIELD(UdpState, num_hashes)
    FIELD(UdpState, coal_cap) FIELD(UdpState, sen_cap) FIELD(UdpState, flush_ratio)
    FIELD(UdpState, exact_base) FIELD(UdpState, exact_n) FIELD(UdpState, bloom)
    FIELD(UdpState, coal) FIELD(UdpState, sen) FIELD(UdpState, exact)
    {NULL, 0},
};

static const FieldInfo BLOOM_FIELDS[] = {
    FIELD(Bloom, bits) FIELD(Bloom, mask) FIELD(Bloom, inserted) FIELD(Bloom, capacity)
    FIELD(Bloom, seeds)
    {NULL, 0},
};

static const FieldInfo LRU_FIELDS[] = {
    FIELD(LruMap, keys) FIELD(LruMap, prev) FIELD(LruMap, next) FIELD(LruMap, index)
    FIELD(LruMap, index_mask) FIELD(LruMap, cap) FIELD(LruMap, len) FIELD(LruMap, oldest)
    FIELD(LruMap, youngest) FIELD(LruMap, free)
    {NULL, 0},
};

static const FieldInfo EIP_FIELDS[] = {
    FIELD(EipDesc, table) FIELD(EipDesc, ntargets) FIELD(EipDesc, targets)
    FIELD(EipDesc, per_entry) FIELD(EipDesc, recent) FIELD(EipDesc, recent_head)
    FIELD(EipDesc, recent_len) FIELD(EipDesc, distance) FIELD(EipDesc, wrong_path_aware)
    FIELD(EipDesc, trained) FIELD(EipDesc, triggered) FIELD(EipDesc, out)
    {NULL, 0},
};

static const FieldInfo MANA_FIELDS[] = {
    FIELD(ManaDesc, records) FIELD(ManaDesc, successor) FIELD(ManaDesc, footprint)
    FIELD(ManaDesc, words) FIELD(ManaDesc, hob) FIELD(ManaDesc, hob_shift)
    FIELD(ManaDesc, region_lines) FIELD(ManaDesc, lookahead) FIELD(ManaDesc, cur_trigger)
    FIELD(ManaDesc, cur_footprint) FIELD(ManaDesc, trained) FIELD(ManaDesc, triggered)
    FIELD(ManaDesc, hob_evictions) FIELD(ManaDesc, out)
    {NULL, 0},
};

static PyObject *fields_dict(const FieldInfo *fields) {
    PyObject *out = PyDict_New();
    if (out == NULL) return NULL;
    for (const FieldInfo *f = fields; f->name != NULL; f++) {
        PyObject *value = PyLong_FromSize_t(f->word);
        if (value == NULL || PyDict_SetItemString(out, f->name, value) < 0) {
            Py_XDECREF(value);
            Py_DECREF(out);
            return NULL;
        }
        Py_DECREF(value);
    }
    return out;
}

/* Descriptor sizes (int64 words), field offsets and counter names for the
 * Python side (sim/driver.py, workloads/tables.py, prefetchers/compiled.py).
 * The first eager_counters names are interned at once; the rest appear
 * once moved. */
static PyObject *build_layout(void) {
    PyObject *names = PyTuple_New(DC_COUNT);
    if (names == NULL) return NULL;
    for (int i = 0; i < DC_COUNT; i++) {
        PyObject *name = PyUnicode_FromString(DC_NAMES[i]);
        if (name == NULL) {
            Py_DECREF(names);
            return NULL;
        }
        PyTuple_SET_ITEM(names, i, name);
    }
    PyObject *fields[] = {
        fields_dict(DRIVER_FIELDS), fields_dict(PROG_FIELDS), fields_dict(UDP_FIELDS),
        fields_dict(BLOOM_FIELDS), fields_dict(LRU_FIELDS), fields_dict(EIP_FIELDS),
        fields_dict(MANA_FIELDS),
    };
    enum { N_FIELDS = sizeof(fields) / sizeof(fields[0]) };
    PyObject *out = NULL;
    int ok = 1;
    for (int i = 0; i < N_FIELDS; i++) ok &= fields[i] != NULL;
    if (ok) {
        out = Py_BuildValue(
            "{s:n,s:n,s:n,s:n,s:n,s:n,s:n,s:n,s:n,s:n,s:n,s:n,"
            "s:O,s:O,s:O,s:O,s:O,s:O,s:O,s:O}",
            "driver_words", (Py_ssize_t)((sizeof(Driver) + 7) / 8),
            "prog_words", (Py_ssize_t)((sizeof(ProgTables) + 7) / 8),
            "ftq_entry_words", (Py_ssize_t)((sizeof(FtqEntry) + 7) / 8),
            "mshr_entry_words", (Py_ssize_t)((sizeof(MshrEntry) + 7) / 8),
            "resteer_words", (Py_ssize_t)((sizeof(Resteer) + 7) / 8),
            "resteer_pool", (Py_ssize_t)RESTEER_POOL,
            "udp_words", (Py_ssize_t)((sizeof(UdpState) + 7) / 8),
            "bloom_words", (Py_ssize_t)(sizeof(Bloom) / 8),
            "lru_words", (Py_ssize_t)(sizeof(LruMap) / 8),
            "eip_words", (Py_ssize_t)(sizeof(EipDesc) / 8),
            "mana_words", (Py_ssize_t)(sizeof(ManaDesc) / 8),
            "eager_counters", (Py_ssize_t)DC_EAGER,
            "driver_fields", fields[0], "prog_fields", fields[1], "udp_fields", fields[2],
            "bloom_fields", fields[3], "lru_fields", fields[4], "eip_fields", fields[5],
            "mana_fields", fields[6], "counters", names);
    }
    for (int i = 0; i < N_FIELDS; i++) Py_XDECREF(fields[i]);
    Py_DECREF(names);
    return out;
}

/* driver_layout() -> dict: build_layout(), built once per process (every C
 * entry asks for it, and it never changes).  Callers only read it. */
static PyObject *layout_memo = NULL;

static PyObject *k_driver_layout(PyObject *self, PyObject *args) {
    (void)self; (void)args;
    if (layout_memo == NULL) layout_memo = build_layout();
    Py_XINCREF(layout_memo);
    return layout_memo;
}

/* buffer_address(obj) -> int: where a contiguous buffer's data lives (a
 * bytes object's or a bytearray's).  The caller keeps the object alive,
 * and a memoryview of it if it could resize, while C uses the address. */
static PyObject *k_buffer_address(PyObject *self, PyObject *obj) {
    (void)self;
    Py_buffer view;
    if (PyObject_GetBuffer(obj, &view, PyBUF_SIMPLE) < 0) return NULL;
    void *data = view.buf;
    PyBuffer_Release(&view);
    return PyLong_FromVoidPtr(data);
}

PyMethodDef repro_driver_methods[] = {
    {"run_cycles", (PyCFunction)(void *)k_run_cycles, METH_FASTCALL, NULL},
    {"functional_walk", (PyCFunction)(void *)k_functional_walk, METH_FASTCALL, NULL},
    {"driver_layout", k_driver_layout, METH_NOARGS, NULL},
    {"buffer_address", k_buffer_address, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};
