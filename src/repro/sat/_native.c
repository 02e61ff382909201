/* Incremental CDCL kernel behind repro.sat.native.
 *
 * A compact MiniSat-family solver with exactly the feature set the
 * Python solver (repro/sat/solver.py) exposes to the BMC layer:
 * incremental add_clause/new_var between solves (one at a time, or a
 * batch per call for whole unrolled frames), assumptions placed as
 * decision levels with failed-assumption cores, assumption levels kept
 * across solves (a solve keeps the prefix it shares with the last
 * one's), VSIDS + phase saving, Luby restarts, LBD-tagged learnt
 * clauses with a glue-protected reduce, cooperative conflict/time
 * budgets, and batched phase steering for lex-min witness extraction.
 * External literals are signed DIMACS ints (variable 1 is the first
 * variable), matching the Python API; internally literals are
 * 2*var+sign.
 *
 * The ABI is C (no mangling) and deliberately flat — every function
 * takes the solver pointer first — so the ctypes wrapper stays a thin
 * veneer. Determinism: no randomness anywhere; identical call
 * sequences produce identical search trees, models and cores.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define L_UNDEF (-1)

static inline int32_t ext2int(int32_t e) {
    return e > 0 ? 2 * (e - 1) : 2 * (-e - 1) + 1;
}
static inline int32_t int2ext(int32_t l) {
    return (l & 1) ? -(l / 2 + 1) : l / 2 + 1;
}
#define VAR(l) ((l) >> 1)
#define NEG(l) ((l) ^ 1)

typedef struct {
    int32_t blocker;
    int32_t cref;
} Watcher;

typedef struct {
    Watcher *data;
    int32_t sz, cap;
} WList;

typedef struct {
    /* clause arena: [size, lbd, lit0, lit1, ...]; cref = offset.
     * lbd == -1 marks a problem clause. */
    int32_t *arena;
    int64_t arena_sz, arena_cap;
    int32_t *clauses;
    int64_t n_clauses, clauses_cap;
    int32_t *learnts;
    int64_t n_learnts, learnts_cap;
    WList *watches; /* indexed by internal literal */
    int8_t *assign; /* per var: 0 undef, 1 true, -1 false */
    uint8_t *phase;
    int32_t *level;
    int32_t *reason; /* cref, or -1 for decision/assumption */
    double *activity;
    int32_t *heap;
    int32_t heap_sz;
    int32_t *heap_pos; /* var -> heap index or -1 */
    int32_t *trail;
    int32_t trail_sz;
    int32_t *trail_lim;
    int32_t n_levels;
    int32_t qhead;
    int32_t nvars, cap_vars;
    double var_inc, var_decay;
    int64_t conflicts, decisions, propagations, restarts, solve_calls;
    int root_unsat;
    int64_t max_learnts;
    int32_t restart_base;
    /* analyze scratch */
    uint8_t *seen;
    int32_t *learnt_buf;
    int32_t learnt_cap;
    uint32_t *lbd_stamp;
    uint32_t lbd_counter;
    int32_t *core;
    int32_t core_sz, core_cap;
    /* external assumption literals whose decision levels survived the
     * last solve, in order (one level each): the prefix the next solve
     * may keep instead of replaying. Sized like trail_lim. */
    int32_t *kept;
    int32_t kept_sz;
} CSolver;

/* ------------------------------------------------------------- helpers */

static void *xrealloc(void *p, size_t n) {
    void *q = realloc(p, n ? n : 1);
    if (!q) abort();
    return q;
}

static void wl_push(WList *w, int32_t blocker, int32_t cref) {
    if (w->sz == w->cap) {
        w->cap = w->cap ? w->cap * 2 : 4;
        w->data = (Watcher *)xrealloc(w->data, w->cap * sizeof(Watcher));
    }
    w->data[w->sz].blocker = blocker;
    w->data[w->sz].cref = cref;
    w->sz++;
}

static void wl_remove(WList *w, int32_t cref) {
    for (int32_t i = 0; i < w->sz; i++) {
        if (w->data[i].cref == cref) {
            w->data[i] = w->data[w->sz - 1];
            w->sz--;
            return;
        }
    }
}

/* --------------------------------------------------------- VSIDS heap */

static void heap_swap(CSolver *s, int32_t i, int32_t j) {
    int32_t vi = s->heap[i], vj = s->heap[j];
    s->heap[i] = vj;
    s->heap[j] = vi;
    s->heap_pos[vj] = i;
    s->heap_pos[vi] = j;
}

static void heap_up(CSolver *s, int32_t i) {
    while (i > 0) {
        int32_t p = (i - 1) / 2;
        if (s->activity[s->heap[i]] > s->activity[s->heap[p]]) {
            heap_swap(s, i, p);
            i = p;
        } else
            break;
    }
}

static void heap_down(CSolver *s, int32_t i) {
    for (;;) {
        int32_t l = 2 * i + 1, r = 2 * i + 2, best = i;
        if (l < s->heap_sz &&
            s->activity[s->heap[l]] > s->activity[s->heap[best]])
            best = l;
        if (r < s->heap_sz &&
            s->activity[s->heap[r]] > s->activity[s->heap[best]])
            best = r;
        if (best == i) return;
        heap_swap(s, i, best);
        i = best;
    }
}

static void heap_insert(CSolver *s, int32_t v) {
    if (s->heap_pos[v] >= 0) return;
    s->heap[s->heap_sz] = v;
    s->heap_pos[v] = s->heap_sz;
    s->heap_sz++;
    heap_up(s, s->heap_sz - 1);
}

static int32_t heap_pop(CSolver *s) {
    int32_t v = s->heap[0];
    s->heap_pos[v] = -1;
    s->heap_sz--;
    if (s->heap_sz > 0) {
        s->heap[0] = s->heap[s->heap_sz];
        s->heap_pos[s->heap[0]] = 0;
        heap_down(s, 0);
    }
    return v;
}

static void var_bump(CSolver *s, int32_t v) {
    s->activity[v] += s->var_inc;
    if (s->activity[v] > 1e100) {
        for (int32_t i = 0; i < s->nvars; i++) s->activity[i] *= 1e-100;
        s->var_inc *= 1e-100;
    }
    if (s->heap_pos[v] >= 0) heap_up(s, s->heap_pos[v]);
}

/* ------------------------------------------------------------ solver */

CSolver *rsat_new(void) {
    CSolver *s = (CSolver *)calloc(1, sizeof(CSolver));
    if (!s) abort();
    s->var_inc = 1.0;
    s->var_decay = 0.95;
    s->restart_base = 100;
    s->max_learnts = 4000;
    return s;
}

void rsat_free(CSolver *s) {
    if (!s) return;
    for (int32_t i = 0; i < 2 * s->nvars; i++) free(s->watches[i].data);
    free(s->watches);
    free(s->arena);
    free(s->clauses);
    free(s->learnts);
    free(s->assign);
    free(s->phase);
    free(s->level);
    free(s->reason);
    free(s->activity);
    free(s->heap);
    free(s->heap_pos);
    free(s->trail);
    free(s->trail_lim);
    free(s->seen);
    free(s->learnt_buf);
    free(s->lbd_stamp);
    free(s->core);
    free(s->kept);
    free(s);
}

int32_t rsat_new_var(CSolver *s) {
    if (s->nvars == s->cap_vars) {
        int32_t cap = s->cap_vars ? s->cap_vars * 2 : 1024;
        s->watches = (WList *)xrealloc(s->watches, 2 * cap * sizeof(WList));
        memset(s->watches + 2 * s->cap_vars, 0,
               2 * (cap - s->cap_vars) * sizeof(WList));
        s->assign = (int8_t *)xrealloc(s->assign, cap);
        s->phase = (uint8_t *)xrealloc(s->phase, cap);
        s->level = (int32_t *)xrealloc(s->level, cap * sizeof(int32_t));
        s->reason = (int32_t *)xrealloc(s->reason, cap * sizeof(int32_t));
        s->activity = (double *)xrealloc(s->activity, cap * sizeof(double));
        s->heap = (int32_t *)xrealloc(s->heap, cap * sizeof(int32_t));
        s->heap_pos = (int32_t *)xrealloc(s->heap_pos, cap * sizeof(int32_t));
        s->trail = (int32_t *)xrealloc(s->trail, cap * sizeof(int32_t));
        /* 2x: assumption levels may be empty (assumption already true),
         * so level count can exceed the variable count */
        s->trail_lim =
            (int32_t *)xrealloc(s->trail_lim, (2 * cap + 2) * sizeof(int32_t));
        s->kept = (int32_t *)xrealloc(s->kept, (2 * cap + 2) * sizeof(int32_t));
        s->seen = (uint8_t *)xrealloc(s->seen, cap);
        s->lbd_stamp =
            (uint32_t *)xrealloc(s->lbd_stamp, (cap + 1) * sizeof(uint32_t));
        memset(s->lbd_stamp + s->cap_vars, 0,
               (cap + 1 - s->cap_vars) * sizeof(uint32_t));
        s->cap_vars = cap;
    }
    int32_t v = s->nvars++;
    s->assign[v] = 0;
    s->phase[v] = 0;
    s->level[v] = 0;
    s->reason[v] = -1;
    s->activity[v] = 0.0;
    s->heap_pos[v] = -1;
    s->seen[v] = 0;
    heap_insert(s, v);
    return s->nvars; /* external 1-based index of the new variable */
}

/* count new variables in one call; returns the last one's external
 * index (the unchanged variable count when count <= 0) */
int32_t rsat_new_vars(CSolver *s, int32_t count) {
    for (int32_t i = 0; i < count; i++) rsat_new_var(s);
    return s->nvars;
}

static inline int8_t lit_value(const CSolver *s, int32_t l) {
    int8_t a = s->assign[VAR(l)];
    return (l & 1) ? (int8_t)-a : a;
}

static void enqueue(CSolver *s, int32_t l, int32_t from) {
    int32_t v = VAR(l);
    s->assign[v] = (l & 1) ? -1 : 1;
    s->level[v] = s->n_levels;
    s->reason[v] = from;
    s->phase[v] = !(l & 1);
    s->trail[s->trail_sz++] = l;
}

static int32_t alloc_clause(CSolver *s, const int32_t *lits, int32_t n,
                            int32_t lbd) {
    if (s->arena_sz + n + 2 > s->arena_cap) {
        int64_t cap = s->arena_cap ? s->arena_cap : 1 << 16;
        while (cap < s->arena_sz + n + 2) cap *= 2;
        s->arena = (int32_t *)xrealloc(s->arena, cap * sizeof(int32_t));
        s->arena_cap = cap;
    }
    int32_t cref = (int32_t)s->arena_sz;
    s->arena[s->arena_sz++] = n;
    s->arena[s->arena_sz++] = lbd;
    memcpy(s->arena + s->arena_sz, lits, n * sizeof(int32_t));
    s->arena_sz += n;
    return cref;
}

static void watch_clause(CSolver *s, int32_t cref) {
    int32_t *c = s->arena + cref + 2;
    wl_push(&s->watches[NEG(c[0])], c[1], cref);
    wl_push(&s->watches[NEG(c[1])], c[0], cref);
}

/* Unit propagation; returns conflicting cref or -1. */
static int32_t propagate(CSolver *s) {
    int32_t confl = -1;
    while (s->qhead < s->trail_sz) {
        int32_t p = s->trail[s->qhead++];
        WList *w = &s->watches[p];
        Watcher *ws = w->data;
        int32_t i = 0, j = 0, n = w->sz;
        s->propagations++;
        while (i < n) {
            int32_t blocker = ws[i].blocker;
            if (lit_value(s, blocker) == 1) {
                ws[j++] = ws[i++];
                continue;
            }
            int32_t cref = ws[i].cref;
            int32_t *c = s->arena + cref;
            int32_t sz = c[0];
            int32_t *lits = c + 2;
            int32_t false_lit = NEG(p);
            if (lits[0] == false_lit) {
                lits[0] = lits[1];
                lits[1] = false_lit;
            }
            int32_t first = lits[0];
            if (first != blocker && lit_value(s, first) == 1) {
                ws[i].blocker = first;
                ws[j++] = ws[i++];
                continue;
            }
            int32_t k;
            for (k = 2; k < sz; k++) {
                if (lit_value(s, lits[k]) != -1) break;
            }
            if (k < sz) {
                lits[1] = lits[k];
                lits[k] = false_lit;
                wl_push(&s->watches[NEG(lits[1])], first, cref);
                i++;
                continue;
            }
            /* unit or conflict */
            ws[i].blocker = first;
            ws[j++] = ws[i++];
            if (lit_value(s, first) == -1) {
                confl = cref;
                s->qhead = s->trail_sz;
                while (i < n) ws[j++] = ws[i++];
                break;
            }
            enqueue(s, first, cref);
        }
        w->sz = j;
        if (confl >= 0) break;
    }
    return confl;
}

static void backtrack(CSolver *s, int32_t target) {
    if (s->n_levels <= target) return;
    int32_t boundary = s->trail_lim[target];
    for (int32_t i = s->trail_sz - 1; i >= boundary; i--) {
        int32_t v = VAR(s->trail[i]);
        s->assign[v] = 0;
        s->reason[v] = -1;
        heap_insert(s, v);
    }
    s->trail_sz = boundary;
    s->n_levels = target;
    if (s->qhead > boundary) s->qhead = boundary;
}

/* 1UIP conflict analysis. Fills s->learnt_buf (learnt_buf[0] is the
 * asserting literal), returns its size via *out_n, the backjump level
 * via *out_bt and the clause LBD via *out_lbd. */
static void analyze(CSolver *s, int32_t confl, int32_t *out_n,
                    int32_t *out_bt, int32_t *out_lbd) {
    if (s->learnt_cap < s->nvars + 1) {
        s->learnt_cap = s->cap_vars + 1;
        s->learnt_buf = (int32_t *)xrealloc(s->learnt_buf,
                                            s->learnt_cap * sizeof(int32_t));
    }
    int32_t n = 1; /* slot 0 reserved for the asserting literal */
    int32_t pathC = 0;
    int32_t p = L_UNDEF;
    int32_t index = s->trail_sz - 1;
    do {
        int32_t *c = s->arena + confl;
        int32_t sz = c[0];
        int32_t *lits = c + 2;
        for (int32_t k = (p == L_UNDEF) ? 0 : 1; k < sz; k++) {
            int32_t q = lits[k];
            int32_t v = VAR(q);
            if (!s->seen[v] && s->level[v] > 0) {
                s->seen[v] = 1;
                var_bump(s, v);
                if (s->level[v] >= s->n_levels)
                    pathC++;
                else
                    s->learnt_buf[n++] = q;
            }
        }
        while (!s->seen[VAR(s->trail[index])]) index--;
        p = s->trail[index];
        confl = s->reason[VAR(p)];
        s->seen[VAR(p)] = 0;
        index--;
        pathC--;
    } while (pathC > 0);
    s->learnt_buf[0] = NEG(p);

    /* backjump level: highest level among the tail literals */
    int32_t bt = 0, max_i = 1;
    for (int32_t k = 1; k < n; k++) {
        if (s->level[VAR(s->learnt_buf[k])] > bt) {
            bt = s->level[VAR(s->learnt_buf[k])];
            max_i = k;
        }
    }
    if (n > 1) {
        int32_t tmp = s->learnt_buf[1];
        s->learnt_buf[1] = s->learnt_buf[max_i];
        s->learnt_buf[max_i] = tmp;
    }
    /* LBD: distinct decision levels in the clause */
    s->lbd_counter++;
    int32_t lbd = 0;
    for (int32_t k = 0; k < n; k++) {
        int32_t lv = s->level[VAR(s->learnt_buf[k])];
        if (s->lbd_stamp[lv] != s->lbd_counter) {
            s->lbd_stamp[lv] = s->lbd_counter;
            lbd++;
        }
    }
    for (int32_t k = 1; k < n; k++) s->seen[VAR(s->learnt_buf[k])] = 0;
    *out_n = n;
    *out_bt = bt;
    *out_lbd = lbd;
}

static void learnts_push(CSolver *s, int32_t cref) {
    if (s->n_learnts == s->learnts_cap) {
        s->learnts_cap = s->learnts_cap ? s->learnts_cap * 2 : 1024;
        s->learnts = (int32_t *)xrealloc(s->learnts,
                                         s->learnts_cap * sizeof(int32_t));
    }
    s->learnts[s->n_learnts++] = cref;
}

static int lbd_cmp(const void *a, const void *b, void *arg) {
    CSolver *s = (CSolver *)arg;
    int32_t la = s->arena[*(const int32_t *)a + 1];
    int32_t lb = s->arena[*(const int32_t *)b + 1];
    if (la != lb) return la < lb ? -1 : 1;
    /* tie-break on cref (age): keep younger clauses, deterministic */
    return *(const int32_t *)a < *(const int32_t *)b ? -1 : 1;
}

/* glibc qsort_r argument order */
static CSolver *g_sort_solver;
static int lbd_cmp_global(const void *a, const void *b) {
    return lbd_cmp(a, b, g_sort_solver);
}

static void reduce_db(CSolver *s) {
    /* sort by LBD ascending; drop the worst half, protecting glue
     * clauses (lbd <= 2) and clauses that are reasons on the trail */
    g_sort_solver = s;
    qsort(s->learnts, s->n_learnts, sizeof(int32_t), lbd_cmp_global);
    int64_t keep_target = s->n_learnts / 2;
    int64_t j = 0;
    for (int64_t i = 0; i < s->n_learnts; i++) {
        int32_t cref = s->learnts[i];
        int32_t lbd = s->arena[cref + 1];
        int32_t first_var = VAR(s->arena[cref + 2]);
        int is_reason =
            s->assign[first_var] != 0 && s->reason[first_var] == cref;
        if (lbd <= 2 || is_reason || i < keep_target) {
            s->learnts[j++] = cref;
        } else {
            int32_t *lits = s->arena + cref + 2;
            wl_remove(&s->watches[NEG(lits[0])], cref);
            wl_remove(&s->watches[NEG(lits[1])], cref);
            s->arena[cref + 1] = INT32_MAX; /* tombstone */
        }
    }
    s->n_learnts = j;
    s->max_learnts = s->max_learnts + s->max_learnts / 2;
}

int32_t rsat_add_clause(CSolver *s, const int32_t *ext, int32_t n) {
    if (s->root_unsat) return 0;
    /* a kept level's propagations must be complete for the formula */
    backtrack(s, 0);
    s->kept_sz = 0;
    /* dedup / tautology / root-simplify using seen[] as scratch */
    int32_t *tmp = (int32_t *)xrealloc(NULL, (n ? n : 1) * sizeof(int32_t));
    int32_t m = 0;
    int taut = 0;
    for (int32_t i = 0; i < n && !taut; i++) {
        int32_t l = ext2int(ext[i]);
        int dup = 0;
        for (int32_t k = 0; k < m; k++) {
            if (tmp[k] == l) dup = 1;
            if (tmp[k] == NEG(l)) taut = 1;
        }
        if (dup || taut) continue;
        int8_t v = lit_value(s, l);
        if (v == 1) taut = 1; /* root-satisfied (level 0) */
        else if (v == -1)
            continue; /* root-false: drop */
        else
            tmp[m++] = l;
    }
    if (taut) {
        free(tmp);
        return 1;
    }
    if (m == 0) {
        free(tmp);
        s->root_unsat = 1;
        return 0;
    }
    if (m == 1) {
        enqueue(s, tmp[0], -1);
        free(tmp);
        if (propagate(s) >= 0) {
            s->root_unsat = 1;
            return 0;
        }
        return 1;
    }
    int32_t cref = alloc_clause(s, tmp, m, -1);
    free(tmp);
    if (s->n_clauses == s->clauses_cap) {
        s->clauses_cap = s->clauses_cap ? s->clauses_cap * 2 : 1024;
        s->clauses = (int32_t *)xrealloc(s->clauses,
                                         s->clauses_cap * sizeof(int32_t));
    }
    s->clauses[s->n_clauses++] = cref;
    watch_clause(s, cref);
    return 1;
}

/* A batch of length-prefixed clauses: lits = [k, l_1 .. l_k, k, ...], n
 * ints in all. Length prefixes (not 0 terminators) keep a zero literal
 * an error. The whole buffer is validated before anything is added:
 * on a negative or overrunning length, or a literal that is zero or
 * names an unallocated variable, nothing is added and the result is
 * -1 - (offset of the bad int). Otherwise the clauses go through
 * rsat_add_clause in order, so simplification, unit propagation and
 * watch order are those of n single adds; returns 0 when the formula
 * is root-UNSAT afterwards, else 1. */
int32_t rsat_add_clauses(CSolver *s, const int32_t *lits, int32_t n) {
    for (int32_t i = 0; i < n;) {
        int32_t k = lits[i];
        if (k < 0 || k > n - i - 1) return -1 - i;
        for (int32_t j = i + 1; j <= i + k; j++) {
            int32_t l = lits[j];
            if (l == 0 || l > s->nvars || l < -s->nvars) return -1 - j;
        }
        i += k + 1;
    }
    for (int32_t i = 0; i < n; i += lits[i] + 1)
        rsat_add_clause(s, lits + i + 1, lits[i]);
    return !s->root_unsat;
}

static int64_t luby(int64_t i) {
    /* Luby sequence, 1-based */
    int64_t k;
    for (k = 1; ((int64_t)1 << k) - 1 < i + 1; k++)
        ;
    while (((int64_t)1 << (k - 1)) - 1 != i) {
        i = i - (((int64_t)1 << (k - 1)) - 1);
        for (k = 1; ((int64_t)1 << k) - 1 < i + 1; k++)
            ;
    }
    return (int64_t)1 << (k - 1);
}

static double now_seconds(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* Failed-assumption core, matching the Python solver's _final_core:
 * the falsified assumption literal (as passed in) plus every earlier
 * assumption its falsification rests on via reason chains, sorted by
 * variable. */
static void analyze_final(CSolver *s, int32_t failed_lit) {
    s->core_sz = 0;
    if (s->core_cap < s->nvars + 1) {
        s->core_cap = s->cap_vars + 1;
        s->core = (int32_t *)xrealloc(s->core, s->core_cap * sizeof(int32_t));
    }
    s->core[s->core_sz++] = int2ext(failed_lit);
    if (s->n_levels > 0) {
        s->seen[VAR(failed_lit)] = 1;
        for (int32_t i = s->trail_sz - 1; i >= s->trail_lim[0]; i--) {
            int32_t v = VAR(s->trail[i]);
            if (!s->seen[v]) continue;
            if (s->reason[v] < 0) {
                /* decision below the assumption frontier: an earlier
                 * assumption literal, on the trail with its given sign */
                s->core[s->core_sz++] = int2ext(s->trail[i]);
            } else {
                int32_t *c = s->arena + s->reason[v];
                int32_t sz = c[0];
                int32_t *lits = c + 2;
                for (int32_t k = 1; k < sz; k++) {
                    int32_t u = VAR(lits[k]);
                    if (s->level[u] > 0) s->seen[u] = 1;
                }
            }
            s->seen[v] = 0;
        }
        /* may be left set when the negation is a level-0 unit (the
         * trail walk stops at the first assumption boundary) */
        s->seen[VAR(failed_lit)] = 0;
    }
    /* insertion sort by variable, mirroring core.sort(key=abs) */
    for (int32_t i = 1; i < s->core_sz; i++) {
        int32_t x = s->core[i];
        int32_t j = i - 1;
        while (j >= 0 && abs(s->core[j]) > abs(x)) {
            s->core[j + 1] = s->core[j];
            j--;
        }
        s->core[j + 1] = x;
    }
}

/* Record ext[0..n) as the assumption levels left on the trail, which
 * are its first n levels (so n fits in kept). kept[0..kept_sz) already
 * equals ext[0..kept_sz) (rsat_solve keeps only a shared prefix), so
 * only the tail is copied. */
static void keep_levels(CSolver *s, const int32_t *ext, int32_t n) {
    if (n > s->kept_sz)
        memcpy(s->kept + s->kept_sz, ext + s->kept_sz,
               (n - s->kept_sz) * sizeof(int32_t));
    s->kept_sz = n;
}

static int32_t min32(int32_t a, int32_t b) { return a < b ? a : b; }

/* A budget ran out: keep the assumption levels placed so far. */
static int32_t give_up(CSolver *s, const int32_t *ext, int32_t n_assumps) {
    int32_t n = min32(n_assumps, s->n_levels);
    backtrack(s, n);
    keep_levels(s, ext, n);
    return -1;
}

/* Every exit leaves assumption levels on the trail for the next call:
 * on SAT all of them (with the rest of the trail, so the model can be
 * read), on UNSAT under assumptions every level placed, and when a
 * budget runs out the first min(n_assumps, levels). The next call keeps
 * the longest prefix its assumptions share with them and backtracks
 * only above it. */
int32_t rsat_solve(CSolver *s, const int32_t *ext_assumps, int32_t n_assumps,
                   int64_t conflict_budget, double time_budget) {
    s->solve_calls++;
    if (s->root_unsat) {
        s->core_sz = 0;
        return 0;
    }
    int32_t keep = 0;
    int32_t limit = min32(min32(s->kept_sz, n_assumps), s->n_levels);
    while (keep < limit && s->kept[keep] == ext_assumps[keep]) keep++;
    backtrack(s, keep);
    s->kept_sz = keep;
    if (!keep && propagate(s) >= 0) {
        s->root_unsat = 1;
        s->core_sz = 0;
        return 0;
    }
    double start = now_seconds();
    int64_t base_conflicts = s->conflicts;
    int64_t restart_round = 0;
    int64_t conflicts_since_restart = 0;
    int64_t restart_limit = s->restart_base * luby(0);
    int64_t next_time_check = s->conflicts + 1;
    int64_t adjusted_max = s->max_learnts > s->n_clauses / 3
                               ? s->max_learnts
                               : s->n_clauses / 3;

    for (;;) {
        int32_t confl = propagate(s);
        if (confl >= 0) {
            s->conflicts++;
            conflicts_since_restart++;
            if (s->n_levels == 0) {
                s->root_unsat = 1;
                s->core_sz = 0;
                s->kept_sz = 0;
                return 0;
            }
            int32_t n, bt, lbd;
            analyze(s, confl, &n, &bt, &lbd);
            /* never backjump past the assumption levels' propagations:
             * a jump into them is fine (levels are rebuilt), below 0 is
             * impossible since bt >= 0 */
            backtrack(s, bt);
            if (n == 1) {
                enqueue(s, s->learnt_buf[0], -1);
            } else {
                int32_t cref = alloc_clause(s, s->learnt_buf, n, lbd);
                learnts_push(s, cref);
                watch_clause(s, cref);
                enqueue(s, s->learnt_buf[0], cref);
            }
            s->var_inc /= s->var_decay;
            if (conflict_budget >= 0 &&
                s->conflicts - base_conflicts >= conflict_budget) {
                return give_up(s, ext_assumps, n_assumps);
            }
            if (time_budget >= 0 && s->conflicts >= next_time_check) {
                next_time_check = s->conflicts + 64;
                if (now_seconds() - start > time_budget)
                    return give_up(s, ext_assumps, n_assumps);
            }
            if (conflicts_since_restart >= restart_limit) {
                restart_round++;
                conflicts_since_restart = 0;
                restart_limit = s->restart_base * luby(restart_round);
                s->restarts++;
                backtrack(s, 0);
            }
            if ((int64_t)s->n_learnts > adjusted_max) {
                reduce_db(s);
                adjusted_max = s->max_learnts;
            }
            continue;
        }

        /* assumption decisions first */
        if (s->n_levels < n_assumps) {
            int32_t l = ext2int(ext_assumps[s->n_levels]);
            int8_t v = lit_value(s, l);
            if (v == -1) {
                analyze_final(s, l);
                keep_levels(s, ext_assumps, s->n_levels);
                return 0; /* UNSAT under assumptions, core available */
            }
            s->trail_lim[s->n_levels++] = s->trail_sz;
            if (v == 0) enqueue(s, l, -1);
            continue;
        }

        /* regular decision */
        int32_t var = -1;
        while (s->heap_sz > 0) {
            int32_t v = heap_pop(s);
            if (s->assign[v] == 0) {
                var = v;
                break;
            }
        }
        if (var < 0) {
            /* model complete; read before next call */
            keep_levels(s, ext_assumps, n_assumps);
            return 1;
        }
        s->decisions++;
        if (time_budget >= 0 && (s->decisions & 1023) == 0 &&
            now_seconds() - start > time_budget)
            return give_up(s, ext_assumps, n_assumps);
        s->trail_lim[s->n_levels++] = s->trail_sz;
        enqueue(s, s->phase[var] ? 2 * var : 2 * var + 1, -1);
    }
}

/* -------------------------------------------------------------- state */

void rsat_model(CSolver *s, uint8_t *out) {
    /* out[v] for external v in 1..nvars */
    for (int32_t v = 0; v < s->nvars; v++)
        out[v + 1] = s->assign[v] == 1;
}

int32_t rsat_core_size(CSolver *s) { return s->core_sz; }

void rsat_core(CSolver *s, int32_t *out) {
    memcpy(out, s->core, s->core_sz * sizeof(int32_t));
}

/* Point the saved phase of each literal's variable at "literal false"
 * (lex-min witness extraction steers its probes this way). */
void rsat_phases_false(CSolver *s, const int32_t *lits, int32_t n) {
    for (int32_t i = 0; i < n; i++) {
        int32_t var = abs(lits[i]);
        if (var >= 1 && var <= s->nvars) s->phase[var - 1] = lits[i] < 0;
    }
}

void rsat_set_restart_base(CSolver *s, int32_t base) {
    if (base > 0) s->restart_base = base;
}

int64_t rsat_conflicts(CSolver *s) { return s->conflicts; }
int64_t rsat_decisions(CSolver *s) { return s->decisions; }
int64_t rsat_propagations(CSolver *s) { return s->propagations; }
int64_t rsat_restarts(CSolver *s) { return s->restarts; }
int64_t rsat_solve_calls(CSolver *s) { return s->solve_calls; }
int64_t rsat_num_clauses(CSolver *s) { return s->n_clauses; }
int64_t rsat_num_learnts(CSolver *s) { return s->n_learnts; }
int32_t rsat_num_vars(CSolver *s) { return s->nvars; }
int32_t rsat_root_unsat(CSolver *s) { return s->root_unsat; }
