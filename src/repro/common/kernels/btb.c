/* BTB / iBTB probe and insert, and the folded global-history push.
 *
 * Ports of branch/btb.py (BranchTargetBuffer, IndirectTargetBuffer)
 * and branch/history.py (GlobalHistory.push) for the cycle driver; both
 * buffers share BtbDesc with the iBTB's tags in `pcs`.  Python reaches a
 * compiled BTB through two calls only, btb_fill and btb_contains: the
 * hooks a plug-in registry technique gets call them from inside
 * run_cycles (shadow-btb's predecoder runs in the driver itself).
 */
#include "kernels.h"

static inline int64_t btb_find(BtbDesc *b, int64_t set_index, int64_t tag) {
    int64_t base = set_index * b->assoc;
    const int64_t *pcs = b->pcs;
    for (int64_t w = 0; w < b->assoc; w++) {
        if (pcs[base + w] == tag) {
            return base + w;
        }
    }
    return -1;
}

/* Lowest-index free way first, else the minimum-stamp (LRU) victim. */
static inline int64_t btb_victim(BtbDesc *b, int64_t set_index) {
    int64_t base = set_index * b->assoc;
    for (int64_t w = 0; w < b->assoc; w++) {
        if (b->pcs[base + w] == -1) {
            b->occupancy++;
            return base + w;
        }
    }
    int64_t g = base;
    int64_t best = b->stamps[base];
    for (int64_t w = 1; w < b->assoc; w++) {
        if (b->stamps[base + w] < best) {
            best = b->stamps[base + w];
            g = base + w;
        }
    }
    return g;
}

/* Probe with recency/statistics side effects: the way index, or -1. */
static int64_t btb_probe_impl(BtbDesc *b, int64_t pc) {
    int64_t set_index = (pc >> 2) % b->num_sets;
    int64_t g = btb_find(b, set_index, pc);
    if (g < 0) {
        b->misses++;
        return -1;
    }
    b->hits++;
    b->stamps[g] = ++b->stamp;
    return g;
}

/* Tag check without touching recency or statistics. */
static inline int btb_contains_impl(BtbDesc *b, int64_t pc) {
    return btb_find(b, (pc >> 2) % b->num_sets, pc) >= 0;
}

static PyObject *k_btb_contains(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_BTB_CONTAINS]++;
    BtbDesc *b = (BtbDesc *)arg_ptr(args, 0);
    int64_t pc = arg_i64(args, 1);
    if (PyErr_Occurred()) return NULL;
    return PyLong_FromLong(btb_contains_impl(b, pc));
}

static void btb_fill_impl(BtbDesc *b, int64_t pc, int64_t kind, int64_t target) {
    int64_t set_index = (pc >> 2) % b->num_sets;
    int64_t g = btb_find(b, set_index, pc);
    if (g < 0) {
        g = btb_victim(b, set_index);
        b->pcs[g] = pc;
    }
    b->kinds[g] = kind;
    b->targets[g] = target;
    b->stamps[g] = ++b->stamp;
}

static PyObject *k_btb_fill(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_BTB_FILL]++;
    BtbDesc *b = (BtbDesc *)arg_ptr(args, 0);
    int64_t pc = arg_i64(args, 1);
    int64_t kind = arg_i64(args, 2);
    int64_t target = arg_i64(args, 3);
    if (PyErr_Occurred()) return NULL;
    btb_fill_impl(b, pc, kind, target);
    Py_RETURN_NONE;
}

/* The stored target, or -1 on a miss (targets are code addresses). */
static int64_t ibtb_predict_impl(BtbDesc *b, int64_t set_index, int64_t tag) {
    int64_t g = btb_find(b, set_index, tag);
    if (g < 0) {
        b->misses++;
        return -1;
    }
    b->hits++;
    b->stamps[g] = ++b->stamp;
    return b->targets[g];
}

static void ibtb_train_impl(BtbDesc *b, int64_t set_index, int64_t tag, int64_t target) {
    int64_t g = btb_find(b, set_index, tag);
    if (g < 0) {
        g = btb_victim(b, set_index);
        b->pcs[g] = tag;
    }
    b->targets[g] = target;
    b->stamps[g] = ++b->stamp;
}

/* Shift one outcome into a history image: `words`/`folded` are either the
 * live arrays the descriptor points at or a checkpoint copy of them (the
 * driver builds corrected-history checkpoints this way). */
static void hist_push_into(const HistDesc *h, uint64_t *words, int64_t *folded,
                           int64_t new_bit) {
    for (int64_t i = 0; i < h->n; i++) {
        int64_t out_pos = h->lengths[i] - 1;
        int64_t out_bit = (int64_t)((words[out_pos >> 6] >> (out_pos & 63)) & 1);
        int64_t f = (folded[i] << 1) | new_bit;
        f ^= out_bit << h->out_shifts[i];
        f ^= f >> h->widths[i];
        folded[i] = f & h->masks[i];
    }
    uint64_t carry = (uint64_t)new_bit;
    for (int64_t j = 0; j < h->n_words; j++) {
        uint64_t next_carry = words[j] >> 63;
        words[j] = (words[j] << 1) | carry;
        carry = next_carry;
    }
    words[h->n_words - 1] &= h->top_mask;
}

PyMethodDef repro_btb_methods[] = {
    {"btb_contains", (PyCFunction)(void *)k_btb_contains, METH_FASTCALL, NULL},
    {"btb_fill", (PyCFunction)(void *)k_btb_fill, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};
