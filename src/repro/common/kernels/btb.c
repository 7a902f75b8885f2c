/* BTB / iBTB probe+insert kernels and the folded global-history push.
 *
 * Ports of branch/btb.py (BranchTargetBuffer, IndirectTargetBuffer)
 * and branch/history.py (GlobalHistory.push).  The iBTB set/tag hash stays
 * in the Python wrapper (it is a handful of integer ops on values Python
 * already holds); both structures share BtbDesc with tags in `pcs`.
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

static PyObject *k_btb_probe(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_BTB_PROBE]++;
    BtbDesc *b = (BtbDesc *)arg_ptr(args, 0);
    int64_t pc = arg_i64(args, 1);
    if (PyErr_Occurred()) return NULL;
    int64_t set_index = (pc >> 2) % b->num_sets;
    int64_t g = btb_find(b, set_index, pc);
    if (g < 0) {
        b->misses++;
        return PyLong_FromLong(-1);
    }
    b->hits++;
    b->stamps[g] = ++b->stamp;
    return PyLong_FromLongLong(g);
}

static PyObject *k_btb_contains(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_BTB_CONTAINS]++;
    BtbDesc *b = (BtbDesc *)arg_ptr(args, 0);
    int64_t pc = arg_i64(args, 1);
    if (PyErr_Occurred()) return NULL;
    int64_t set_index = (pc >> 2) % b->num_sets;
    return PyLong_FromLong(btb_find(b, set_index, pc) >= 0);
}

/* Side-effect-free scan of `count` pcs: index of the first pc resident in
 * the BTB, or -1 when every one misses.  No hit/miss counters, no LRU stamp
 * movement — the caller decides whether to commit to the all-miss fast path
 * (bulk-bumping the miss counters itself) or to re-run the scalar per-pc
 * probes, which then account every probe exactly once. */
static PyObject *k_btb_first_hit(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_BTB_FIRST_HIT]++;
    BtbDesc *b = (BtbDesc *)arg_ptr(args, 0);
    const int64_t *pcs = (const int64_t *)arg_ptr(args, 1);
    int64_t count = arg_i64(args, 2);
    if (PyErr_Occurred()) return NULL;
    for (int64_t i = 0; i < count; i++) {
        int64_t set_index = (pcs[i] >> 2) % b->num_sets;
        if (btb_find(b, set_index, pcs[i]) >= 0) {
            return PyLong_FromLongLong(i);
        }
    }
    return PyLong_FromLong(-1);
}

static PyObject *k_btb_fill(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_BTB_FILL]++;
    BtbDesc *b = (BtbDesc *)arg_ptr(args, 0);
    int64_t pc = arg_i64(args, 1);
    int64_t kind = arg_i64(args, 2);
    int64_t target = arg_i64(args, 3);
    if (PyErr_Occurred()) return NULL;
    int64_t set_index = (pc >> 2) % b->num_sets;
    int64_t g = btb_find(b, set_index, pc);
    if (g < 0) {
        g = btb_victim(b, set_index);
        b->pcs[g] = pc;
    }
    b->kinds[g] = kind;
    b->targets[g] = target;
    b->stamps[g] = ++b->stamp;
    Py_RETURN_NONE;
}

static PyObject *k_ibtb_predict(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_IBTB_PREDICT]++;
    BtbDesc *b = (BtbDesc *)arg_ptr(args, 0);
    int64_t set_index = arg_i64(args, 1);
    int64_t tag = arg_i64(args, 2);
    if (PyErr_Occurred()) return NULL;
    int64_t g = btb_find(b, set_index, tag);
    if (g < 0) {
        b->misses++;
        return PyLong_FromLong(-1);
    }
    b->hits++;
    b->stamps[g] = ++b->stamp;
    return PyLong_FromLongLong(b->targets[g]);
}

static PyObject *k_ibtb_train(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_IBTB_TRAIN]++;
    BtbDesc *b = (BtbDesc *)arg_ptr(args, 0);
    int64_t set_index = arg_i64(args, 1);
    int64_t tag = arg_i64(args, 2);
    int64_t target = arg_i64(args, 3);
    if (PyErr_Occurred()) return NULL;
    int64_t g = btb_find(b, set_index, tag);
    if (g < 0) {
        g = btb_victim(b, set_index);
        b->pcs[g] = tag;
    }
    b->targets[g] = target;
    b->stamps[g] = ++b->stamp;
    Py_RETURN_NONE;
}

static PyObject *k_hist_push(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_HIST_PUSH]++;
    HistDesc *h = (HistDesc *)arg_ptr(args, 0);
    int64_t new_bit = arg_i64(args, 1);
    if (PyErr_Occurred()) return NULL;
    uint64_t *words = h->words;
    for (int64_t i = 0; i < h->n; i++) {
        int64_t out_pos = h->lengths[i] - 1;
        int64_t out_bit = (int64_t)((words[out_pos >> 6] >> (out_pos & 63)) & 1);
        int64_t folded = (h->folded[i] << 1) | new_bit;
        folded ^= out_bit << h->out_shifts[i];
        folded ^= folded >> h->widths[i];
        h->folded[i] = folded & h->masks[i];
    }
    uint64_t carry = (uint64_t)new_bit;
    for (int64_t j = 0; j < h->n_words; j++) {
        uint64_t next_carry = words[j] >> 63;
        words[j] = (words[j] << 1) | carry;
        carry = next_carry;
    }
    words[h->n_words - 1] &= h->top_mask;
    Py_RETURN_NONE;
}

PyMethodDef repro_btb_methods[] = {
    {"btb_probe", (PyCFunction)(void *)k_btb_probe, METH_FASTCALL, NULL},
    {"btb_contains", (PyCFunction)(void *)k_btb_contains, METH_FASTCALL, NULL},
    {"btb_first_hit", (PyCFunction)(void *)k_btb_first_hit, METH_FASTCALL, NULL},
    {"btb_fill", (PyCFunction)(void *)k_btb_fill, METH_FASTCALL, NULL},
    {"ibtb_predict", (PyCFunction)(void *)k_ibtb_predict, METH_FASTCALL, NULL},
    {"ibtb_train", (PyCFunction)(void *)k_ibtb_train, METH_FASTCALL, NULL},
    {"hist_push", (PyCFunction)(void *)k_hist_push, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};
