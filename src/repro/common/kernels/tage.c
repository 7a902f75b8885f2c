/* TAGE kernels: the per-branch probe and the training/allocation path.
 *
 * Port of branch/tage.py (TagePredictor.predict/update over the
 * TagePredictorC SoA arrays) plus the bimodal base (branch/bimodal.py,
 * a raw uint8 table).  predict() leaves its outputs in the descriptor's
 * out_* fields and the per-table indices/tags in the scratch arrays; the
 * wrapper materializes the TagePrediction dataclass from those.  update()
 * receives the prediction's own indices/tags tuples because predictions
 * are in flight between fetch and resolve -- the scratch arrays only ever
 * describe the most recent probe.
 */
#include "kernels.h"

static inline int64_t base_counter(TageDesc *d, int64_t pc) {
    return d->base_table[(pc >> 2) & d->base_mask];
}

static inline void base_update(TageDesc *d, int64_t pc, int64_t taken) {
    int64_t i = (pc >> 2) & d->base_mask;
    uint8_t value = d->base_table[i];
    if (taken) {
        if (value < 3) d->base_table[i] = value + 1;
    } else if (value > 0) {
        d->base_table[i] = value - 1;
    }
}

/* Signed saturating counter in [-4, 3]; g is a flat tables-array index. */
static inline void update_ctr(TageDesc *d, int64_t g, int64_t taken) {
    int64_t ctr = d->ctrs[g];
    if (taken) {
        if (ctr < 3) d->ctrs[g] = ctr + 1;
    } else if (ctr > -4) {
        d->ctrs[g] = ctr - 1;
    }
}

static PyObject *k_tage_predict(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_TAGE_PREDICT]++;
    TageDesc *d = (TageDesc *)arg_ptr(args, 0);
    int64_t pc = arg_i64(args, 1);
    if (PyErr_Occurred()) return NULL;

    int64_t pc_idx = (pc >> 2) ^ (pc >> (d->table_bits + 2));
    int64_t pc_tag = pc >> 2;
    for (int64_t t = 0; t < d->num_tables; t++) {
        d->idx_scratch[t] = (pc_idx ^ d->folded[2 * t]) & d->index_mask;
        int64_t fold = d->folded[2 * t + 1];
        d->tag_scratch[t] = (pc_tag ^ (fold << 1) ^ (fold >> 1)) & d->tag_mask;
    }

    int64_t provider = -1, alt_provider = -1;
    for (int64_t t = d->num_tables - 1; t >= 0; t--) {
        if (d->tags[t * d->size + d->idx_scratch[t]] == d->tag_scratch[t]) {
            if (provider < 0) {
                provider = t;
            } else {
                alt_provider = t;
                break;
            }
        }
    }

    int64_t alt_index, alt_taken;
    if (alt_provider >= 0) {
        alt_index = d->idx_scratch[alt_provider];
        alt_taken = d->ctrs[alt_provider * d->size + alt_index] >= 0;
    } else {
        alt_index = -1;
        alt_taken = base_counter(d, pc) >= 2;
    }

    int64_t index, taken, confidence, newly_allocated;
    if (provider >= 0) {
        index = d->idx_scratch[provider];
        int64_t g = provider * d->size + index;
        int64_t ctr = d->ctrs[g];
        newly_allocated = d->useful[g] == 0 && (ctr == -1 || ctr == 0);
        if (newly_allocated && d->use_alt_counter >= d->use_alt_threshold) {
            taken = alt_taken;
        } else {
            taken = ctr >= 0;
        }
        int64_t magnitude = 2 * ctr + 1;
        if (magnitude < 0) magnitude = -magnitude;
        confidence = magnitude >= 5 ? 2 : (magnitude >= 3 ? 1 : 0);
    } else {
        index = -1;
        newly_allocated = 0;
        taken = alt_taken;
        int64_t counter = base_counter(d, pc);
        confidence = (counter == 0 || counter == 3) ? 2 : 0;
    }

    d->out_taken = taken;
    d->out_confidence = confidence;
    d->out_provider = provider;
    d->out_provider_index = index;
    d->out_alt_taken = alt_taken;
    d->out_alt_provider = alt_provider;
    d->out_alt_index = alt_index;
    d->out_newly_allocated = newly_allocated;
    Py_RETURN_NONE;
}

static PyObject *k_tage_update(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_TAGE_UPDATE]++;
    TageDesc *d = (TageDesc *)arg_ptr(args, 0);
    int64_t pc = arg_i64(args, 1);
    int64_t taken = arg_i64(args, 2);
    int64_t predicted_taken = arg_i64(args, 3);
    int64_t provider = arg_i64(args, 4);
    int64_t provider_index = arg_i64(args, 5);
    int64_t alt_taken = arg_i64(args, 6);
    int64_t alt_provider = arg_i64(args, 7);
    int64_t alt_index = arg_i64(args, 8);
    int64_t newly_allocated = arg_i64(args, 9);
    PyObject *indices = args[10];
    PyObject *tags = args[11];
    if (PyErr_Occurred()) return NULL;

    int64_t mispredicted = predicted_taken != taken;

    /* use_alt_on_na bookkeeping, before the provider counter moves. */
    if (provider >= 0 && newly_allocated) {
        int64_t provider_taken = d->ctrs[provider * d->size + provider_index] >= 0;
        if (provider_taken != alt_taken) {
            int64_t provider_correct = provider_taken == taken;
            if (provider_correct && d->use_alt_counter > 0) {
                d->use_alt_counter--;
            } else if (!provider_correct && d->use_alt_counter < 15) {
                d->use_alt_counter++;
            }
        }
    }

    if (provider >= 0) {
        int64_t g = provider * d->size + provider_index;
        int64_t provider_taken = d->ctrs[g] >= 0;
        if (provider_taken != alt_taken) {
            if (provider_taken == taken) {
                if (d->useful[g] < 3) d->useful[g]++;
            } else if (d->useful[g] > 0) {
                d->useful[g]--;
            }
        }
        update_ctr(d, g, taken);
        if (newly_allocated) {
            if (alt_provider >= 0) {
                update_ctr(d, alt_provider * d->size + alt_index, taken);
            } else {
                base_update(d, pc, taken);
            }
        }
    } else {
        base_update(d, pc, taken);
    }

    if (mispredicted) {
        int64_t allocated = 0;
        for (int64_t t = provider + 1; t < d->num_tables; t++) {
            int64_t idx = PyLong_AsLongLong(PyTuple_GET_ITEM(indices, t));
            int64_t g = t * d->size + idx;
            if (d->useful[g] == 0) {
                d->tags[g] = PyLong_AsLongLong(PyTuple_GET_ITEM(tags, t));
                d->ctrs[g] = taken ? 0 : -1;
                allocated = 1;
                break;
            }
        }
        if (!allocated) {
            for (int64_t t = provider + 1; t < d->num_tables; t++) {
                int64_t idx = PyLong_AsLongLong(PyTuple_GET_ITEM(indices, t));
                int64_t g = t * d->size + idx;
                if (d->useful[g] > 0) d->useful[g]--;
            }
        }
        d->tick++;
        if (d->tick >= (1 << 14)) {
            int64_t total = d->num_tables * d->size;
            for (int64_t i = 0; i < total; i++) {
                if (d->useful[i]) d->useful[i]--;
            }
            d->tick = 0;
        }
    }
    Py_RETURN_NONE;
}

PyMethodDef repro_tage_methods[] = {
    {"tage_predict", (PyCFunction)(void *)k_tage_predict, METH_FASTCALL, NULL},
    {"tage_update", (PyCFunction)(void *)k_tage_update, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};
