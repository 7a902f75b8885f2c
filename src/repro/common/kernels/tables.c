/* check_columns: the load checks of a program's flat columns, and
 * index_blocks: the driver's block index over them.
 *
 * check_columns ports workloads/checks.py's first_failure (the oracle and
 * the fallback): every invariant the cycle driver relies on before it
 * reads a program's columns (ProgTables), made in the same order and
 * numbered as workloads/tables.py's message table, so both report the
 * same first failure.
 * Python checks the format first -- buffer types, whole columns, an entry
 * inside int64 -- and hands over the three int64 buffers' addresses and
 * lengths, the number of op bytes and the entry.
 *
 * Every value is any int64: sums and products that Python makes with big
 * integers are made here without overflow (a block's end is compared as a
 * difference, the region's end through __builtin_*_overflow), and a node
 * or target is read only after its index is checked.
 */
#include "kernels.h"

/* The failures, by number: workloads/tables.py _FAILURES (checks.py
 * makes them in this order too). */
enum {
    CK_OK, CK_EMPTY_OR_UNALIGNED, CK_NOT_TILED, CK_REGION, CK_OPS, CK_ENTRY,
    CK_KIND, CK_INDIRECT_TARGET, CK_DIRECT_TARGET, CK_NON_FINITE, CK_PATTERN,
    CK_PATTERN_LENGTH, CK_PHASE_LENGTH, CK_PHASED_CHILDREN, CK_COND_NODE,
    CK_SELECTOR, CK_TARGETS_RANGE, CK_FIXED_INDEX,
};

#define ADDRESS_LIMIT (1LL << 48)   /* tables.py _ADDRESS_LIMIT */

static inline int is_direction(int64_t kind) { return kind >= B_ALWAYS && kind <= B_PHASED; }
static inline int is_selector(int64_t kind) { return kind >= B_FIXED && kind <= B_ROTATING; }

/* addr + 4 * ninstr == next, exactly, for ninstr > 0: a positive difference
 * of two int64s is exact in uint64, and a span that overflows uint64 is
 * longer than any of them. */
static inline int ends_at(int64_t addr, int64_t ninstr, int64_t next) {
    uint64_t span;
    if (next <= addr || __builtin_mul_overflow((uint64_t)ninstr, (uint64_t)4, &span)) return 0;
    return (uint64_t)next - (uint64_t)addr == span;
}

/* The block-start bitmap, one bit per instruction of [start, end). */
typedef struct {
    uint8_t *bits;
    int64_t start;
    int64_t end;
} Starts;

static inline int is_start(const Starts *s, int64_t addr) {
    if (addr < s->start || addr >= s->end || ((addr - s->start) & 3) != 0) return 0;
    int64_t i = (addr - s->start) >> 2;
    return (s->bits[i >> 3] >> (i & 7)) & 1;
}

/* The number of the first check the columns fail, 0 when all hold, or -1
 * with MemoryError set.  `blocks` holds n_blocks entries of each of the
 * seven block columns, `nodes` n_nodes of each of the six node columns
 * (tables.py BLOCK_COLUMNS, NODE_COLUMNS); `nodes` and `targets` may be
 * empty. */
static int check_columns_impl(const int64_t *blocks, int64_t n_blocks, const int64_t *nodes,
                              int64_t n_nodes, const int64_t *targets, int64_t n_targets,
                              int64_t n_ops, int64_t entry) {
    const int64_t n = n_blocks, m = n_nodes;
    const int64_t *addr = blocks, *ninstr = blocks + n, *kind = blocks + 2 * n;
    const int64_t *target = blocks + 3 * n, *behavior = blocks + 4 * n;
    const int64_t *targets_off = blocks + 5 * n, *targets_n = blocks + 6 * n;
    /* Node columns by index: `nodes` is NULL when there are none. */
#define NODE_KIND(j) nodes[(j)]
#define NODE_A(j) nodes[3 * m + (j)]
#define NODE_B(j) nodes[4 * m + (j)]
#define NODE_C(j) nodes[5 * m + (j)]

    for (int64_t i = 0; i < n; i++) {
        if (ninstr[i] <= 0) return CK_EMPTY_OR_UNALIGNED;
    }
    if ((uint64_t)addr[0] & 3) return CK_EMPTY_OR_UNALIGNED;
    for (int64_t i = 0; i + 1 < n; i++) {
        if (!ends_at(addr[i], ninstr[i], addr[i + 1])) return CK_NOT_TILED;
    }
    /* The blocks tile, so addresses rise: from a start >= 0, an end that
     * overflows int64 lies past the address limit. */
    int64_t start = addr[0], span, end;
    if (start < 0 || __builtin_mul_overflow(ninstr[n - 1], (int64_t)4, &span)
        || __builtin_add_overflow(addr[n - 1], span, &end) || end > ADDRESS_LIMIT) {
        return CK_REGION;
    }
    if (n_ops != (end - start) / 4) return CK_OPS;
    if (entry < start || entry >= end) return CK_ENTRY;
    for (int64_t i = 0; i < n; i++) {
        if (kind[i] < -1 || kind[i] > K_INDIRECT_CALL) return CK_KIND;
    }

    Starts starts = {PyMem_Calloc((size_t)(n_ops / 8 + 1), 1), start, end};
    if (starts.bits == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t at = (addr[i] - start) >> 2;
        starts.bits[at >> 3] |= (uint8_t)(1u << (at & 7));
    }
    int failure = CK_OK;
    for (int64_t j = 0; j < n_targets && failure == CK_OK; j++) {
        if (!is_start(&starts, targets[j])) failure = CK_INDIRECT_TARGET;
    }
    for (int64_t i = 0; i < n && failure == CK_OK; i++) {
        int direct = kind[i] == K_COND || kind[i] == K_JUMP || kind[i] == K_CALL;
        if (direct && !is_start(&starts, target[i])) failure = CK_DIRECT_TARGET;
    }
    PyMem_Free(starts.bits);
    if (failure != CK_OK) return failure;

    for (int64_t j = 0; j < m; j++) {
        double f;
        memcpy(&f, &nodes[2 * m + j], sizeof f);
        if (!isfinite(f)) return CK_NON_FINITE;
    }
    for (int64_t j = 0; j < m; j++) {
        if (NODE_KIND(j) == B_PATTERN) {
            if (NODE_A(j) < 0) return CK_PATTERN;
            if (NODE_B(j) <= 0) return CK_PATTERN_LENGTH;
        } else if (NODE_KIND(j) == B_PHASED) {
            if (NODE_A(j) <= 0) return CK_PHASE_LENGTH;
            int64_t b = NODE_B(j), c = NODE_C(j);
            if (!(0 <= b && b < j && 0 <= c && c < j
                  && is_direction(NODE_KIND(b)) && is_direction(NODE_KIND(c)))) {
                return CK_PHASED_CHILDREN;
            }
        }
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t node = behavior[i];
        if (kind[i] == K_COND && !(0 <= node && node < m && is_direction(NODE_KIND(node)))) {
            return CK_COND_NODE;
        }
    }
    for (int64_t i = 0; i < n; i++) {
        if (!IS_INDIRECT(kind[i])) continue;
        int64_t node = behavior[i], count = targets_n[i];
        if (!(0 <= node && node < m && is_selector(NODE_KIND(node)))) return CK_SELECTOR;
        if (!(count > 0 && 0 <= targets_off[i] && targets_off[i] <= n_targets - count)) {
            return CK_TARGETS_RANGE;
        }
        if (NODE_KIND(node) == B_FIXED && !(-count <= NODE_A(node) && NODE_A(node) < count)) {
            return CK_FIXED_INDEX;
        }
    }
    return CK_OK;
#undef NODE_KIND
#undef NODE_A
#undef NODE_B
#undef NODE_C
}

/* check_columns(blocks, blocks_len, nodes, nodes_len, targets, targets_len,
 * ops_len, entry) -> int: the first failing check's number, 0 if none.  The
 * buffers are int64 arrays given by address and length in items. */
static PyObject *k_check_columns(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self; (void)nargs;
    repro_kernel_calls[KC_CHECK_COLUMNS]++;
    const int64_t *blocks = (const int64_t *)arg_ptr(args, 0);
    int64_t blocks_len = arg_i64(args, 1);
    const int64_t *nodes = (const int64_t *)arg_ptr(args, 2);
    int64_t nodes_len = arg_i64(args, 3);
    const int64_t *targets = (const int64_t *)arg_ptr(args, 4);
    int64_t targets_len = arg_i64(args, 5);
    int64_t ops_len = arg_i64(args, 6);
    int64_t entry = arg_i64(args, 7);
    if (PyErr_Occurred()) return NULL;
    int failure = check_columns_impl(blocks, blocks_len / 7, nodes, nodes_len / 6, targets,
                                     targets_len, ops_len, entry);
    if (failure < 0) return NULL;
    return PyLong_FromLong(failure);
}

/* index_blocks(tables): fill the block index of a checked program's
 * ProgTables (line_block, whose n_lines words the caller allocated), so
 * block_at reads one entry and scans forward within a line instead of
 * searching every block. */
static PyObject *k_index_blocks(PyObject *self, PyObject *arg) {
    (void)self;
    repro_kernel_calls[KC_INDEX_BLOCKS]++;
    ProgTables *P = (ProgTables *)PyLong_AsVoidPtr(arg);
    if (PyErr_Occurred()) return NULL;
    int64_t *line_block = (int64_t *)P->line_block;
    int64_t b = 0;
    for (int64_t i = 0; i < P->n_lines; i++) {
        int64_t line = P->line_base + 64 * i;
        while (b + 1 < P->n_blocks && P->addr[b + 1] <= line) b++;
        line_block[i] = b;
    }
    Py_RETURN_NONE;
}

PyMethodDef repro_tables_methods[] = {
    {"check_columns", (PyCFunction)(void *)k_check_columns, METH_FASTCALL, NULL},
    {"index_blocks", k_index_blocks, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};
