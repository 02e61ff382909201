/* Incremental CDCL kernel behind repro.sat.native.
 *
 * A compact MiniSat-family solver with exactly the feature set the
 * Python solver (repro/sat/solver.py) exposes to the BMC layer:
 * incremental add_clause/new_var between solves (one at a time, or a
 * batch per call for whole unrolled frames), assumptions placed as
 * decision levels with failed-assumption cores, assumption levels kept
 * across solves (a solve keeps the prefix it shares with the last
 * one's), VSIDS + phase saving, Luby restarts (base 100), LBD-tagged
 * learnt clauses with a glue-protected reduce, chronological
 * backtracking, cooperative conflict/time budgets, an optional decision
 * order searched before VSIDS, and batched phase steering for lex-min
 * witness extraction. External literals are
 * signed DIMACS ints (variable 1 is the first variable), matching the
 * Python API; internally literals are 2*var+sign.
 *
 * Chronological backtracking (Nadel & Ryvchin, SAT 2018, with the
 * missed-lower-implication repair of Moehle & Biere, SAT 2019): a
 * learnt clause that would jump back more than CHRONO_T levels
 * backtracks one level instead and asserts its UIP at its true, lower
 * level, so the decisions in between survive the conflict. The trail
 * is then no longer sorted by level; enqueue, propagate, backtrack and
 * conflict_level keep the invariants that replace that order (DESIGN.md
 * decision 22). A search whose backjumps are all CHRONO_T levels or
 * shorter is exactly that of a non-chronological kernel.
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

/* A learnt clause that would undo more levels than this backtracks one
 * level instead. Only a test build overrides it (-DCHRONO_T=0 makes
 * every backtrack chronological). */
#ifndef CHRONO_T
#define CHRONO_T 100
#endif

/* conflicts before the first restart; later ones follow the Luby
 * sequence */
#define RESTART_BASE 100

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
    int32_t *trail_lim; /* trail_lim[k]: trail size when level k+1 opened */
    int32_t n_levels;
    int32_t level_cap; /* entries of trail_lim, kept and lbd_stamp */
    int32_t qhead;
    int32_t nvars, cap_vars;
    double var_inc, var_decay;
    int64_t conflicts, decisions, propagations, restarts, solve_calls;
    int root_unsat;
    int64_t max_learnts;
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
     * may keep instead of replaying. */
    int32_t *kept;
    int32_t kept_sz;
    /* rsat_add_clause scratch */
    int32_t *add_buf;
    int32_t add_cap;
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
    free(s->add_buf);
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
        s->seen = (uint8_t *)xrealloc(s->seen, cap);
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

/* Assign l at level lvl (at most n_levels) with reason from. */
static void enqueue(CSolver *s, int32_t l, int32_t from, int32_t lvl) {
    int32_t v = VAR(l);
    s->assign[v] = (l & 1) ? -1 : 1;
    s->level[v] = lvl;
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
        /* below the current level only after a chronological backtrack */
        int lower = s->level[VAR(p)] < s->n_levels;
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
            if (lit_value(s, first) == -1) {
                ws[i].blocker = first;
                ws[j++] = ws[i++];
                confl = cref;
                s->qhead = s->trail_sz;
                while (i < n) ws[j++] = ws[i++];
                break;
            }
            int32_t lvl = s->n_levels;
            if (lower) {
                /* implied at the highest level among the false literals;
                 * that literal becomes the second watch */
                int32_t best = 1;
                lvl = s->level[VAR(false_lit)];
                for (k = 2; k < sz; k++) {
                    if (s->level[VAR(lits[k])] > lvl) {
                        lvl = s->level[VAR(lits[k])];
                        best = k;
                    }
                }
                if (best > 1) {
                    lits[1] = lits[best];
                    lits[best] = false_lit;
                    wl_push(&s->watches[NEG(lits[1])], first, cref);
                    i++;
                    enqueue(s, first, cref, lvl);
                    continue;
                }
            }
            ws[i].blocker = first;
            ws[j++] = ws[i++];
            enqueue(s, first, cref, lvl);
        }
        w->sz = j;
        if (confl >= 0) break;
    }
    return confl;
}

/* Unassign every literal above level target. Literals at or below it
 * that sit higher on the trail (implied out of order) stay, compacted in
 * trail order to just above trail_lim[target]; propagation restarts
 * there. */
static void backtrack(CSolver *s, int32_t target) {
    if (s->n_levels <= target) return;
    int32_t boundary = s->trail_lim[target];
    int32_t stay = 0;
    /* top down, so the heap sees the same insertions as a plain
     * non-chronological backtrack */
    for (int32_t i = s->trail_sz - 1; i >= boundary; i--) {
        int32_t v = VAR(s->trail[i]);
        if (s->level[v] <= target) {
            stay++;
            continue;
        }
        s->assign[v] = 0;
        s->reason[v] = -1;
        heap_insert(s, v);
    }
    int32_t j = boundary;
    for (int32_t i = boundary; stay && i < s->trail_sz; i++) {
        int32_t l = s->trail[i];
        if (s->level[VAR(l)] <= target) {
            s->trail[j++] = l;
            stay--;
        }
    }
    s->trail_sz = j;
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
        /* seen literals below the conflict level stay in the clause */
        while (!s->seen[VAR(s->trail[index])] ||
               s->level[VAR(s->trail[index])] < s->n_levels)
            index--;
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

/* The level of conflict clause confl: the highest level among its
 * literals. Unless one of its watches already sits there (always so in
 * a search that never backtracked chronologically), its two
 * highest-level literals become the watches, lits[0] the highest, so a
 * backjump below that level unassigns a watch. *forced is lits[0] when
 * it is the only literal at that level (a missed lower implication),
 * else L_UNDEF. */
static int32_t conflict_level(CSolver *s, int32_t confl, int32_t *forced) {
    int32_t sz = s->arena[confl];
    int32_t *lits = s->arena + confl + 2;
    int32_t top = 0, count = 0;
    for (int32_t k = 0; k < sz; k++) {
        int32_t lv = s->level[VAR(lits[k])];
        if (lv > top) {
            top = lv;
            count = 1;
        } else if (lv == top)
            count++;
    }
    *forced = L_UNDEF;
    if (count > 1 && (s->level[VAR(lits[0])] == top ||
                      s->level[VAR(lits[1])] == top))
        return top;
    for (int32_t i = 0; i < 2; i++) {
        int32_t best = i;
        for (int32_t k = i + 1; k < sz; k++)
            if (s->level[VAR(lits[k])] > s->level[VAR(lits[best])]) best = k;
        if (best == i) continue;
        int32_t moved = lits[best];
        if (best > 1) { /* an unwatched literal takes over lits[i]'s watch */
            wl_remove(&s->watches[NEG(lits[i])], confl);
            wl_push(&s->watches[NEG(moved)], lits[1 - i], confl);
        }
        lits[best] = lits[i];
        lits[i] = moved;
    }
    if (count == 1) *forced = lits[0];
    return top;
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
    /* dedup / tautology / root-simplify into add_buf */
    if (n > s->add_cap) {
        s->add_cap = n;
        s->add_buf = (int32_t *)xrealloc(s->add_buf, n * sizeof(int32_t));
    }
    int32_t *tmp = s->add_buf;
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
    if (taut) return 1;
    if (m == 0) {
        s->root_unsat = 1;
        return 0;
    }
    if (m == 1) {
        enqueue(s, tmp[0], -1, 0);
        if (propagate(s) >= 0) {
            s->root_unsat = 1;
            return 0;
        }
        return 1;
    }
    int32_t cref = alloc_clause(s, tmp, m, -1);
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

/* Size the level-indexed buffers (trail_lim, kept, lbd_stamp) for a
 * solve under n_assumps assumptions: each assumption opens a level,
 * even one that is already true, and each other level holds a distinct
 * decision variable. */
static void ensure_levels(CSolver *s, int32_t n_assumps) {
    int64_t need = (int64_t)s->nvars + n_assumps + 1;
    if (need <= s->level_cap) return;
    int32_t cap = (int32_t)(need > 2 * (int64_t)s->level_cap
                                ? need
                                : 2 * (int64_t)s->level_cap);
    s->trail_lim = (int32_t *)xrealloc(s->trail_lim, cap * sizeof(int32_t));
    s->kept = (int32_t *)xrealloc(s->kept, cap * sizeof(int32_t));
    s->lbd_stamp =
        (uint32_t *)xrealloc(s->lbd_stamp, cap * sizeof(uint32_t));
    memset(s->lbd_stamp + s->level_cap, 0,
           (cap - s->level_cap) * sizeof(uint32_t));
    s->level_cap = cap;
}

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
 * only above it.
 *
 * Once the assumptions are placed, each decision sets the first
 * unassigned literal of order[0..n_order) true, and VSIDS decides only
 * when every one of them is assigned. The cursor into order restarts at
 * 0 after each conflict (a backtrack may unassign any of them), so a
 * caller bounds that rescan with conflict_budget. */
int32_t rsat_solve(CSolver *s, const int32_t *ext_assumps, int32_t n_assumps,
                   const int32_t *order, int32_t n_order,
                   int64_t conflict_budget, double time_budget) {
    s->solve_calls++;
    if (s->root_unsat) {
        s->core_sz = 0;
        return 0;
    }
    ensure_levels(s, n_assumps);
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
    int64_t restart_limit = RESTART_BASE * luby(0);
    int64_t next_time_check = s->conflicts + 1;
    int32_t cursor = 0; /* order[0..cursor) are assigned */
    int64_t adjusted_max = s->max_learnts > s->n_clauses / 3
                               ? s->max_learnts
                               : s->n_clauses / 3;

    for (;;) {
        int32_t confl = propagate(s);
        if (confl >= 0) {
            s->conflicts++;
            conflicts_since_restart++;
            cursor = 0;
            int32_t forced;
            int32_t top = conflict_level(s, confl, &forced);
            if (top == 0) {
                s->root_unsat = 1;
                s->core_sz = 0;
                s->kept_sz = 0;
                return 0;
            }
            if (forced != L_UNDEF) {
                /* a missed lower implication: assign the literal at the
                 * level where the clause became unit */
                int32_t lvl = s->level[VAR(s->arena[confl + 3])];
                backtrack(s, top - 1);
                enqueue(s, forced, confl, lvl);
            } else {
                int32_t n, bt, lbd;
                backtrack(s, top);
                analyze(s, confl, &n, &bt, &lbd);
                /* a jump into the assumption levels is fine: they are
                 * placed again, in order */
                if (n == 1) {
                    backtrack(s, 0);
                    enqueue(s, s->learnt_buf[0], -1, 0);
                } else {
                    backtrack(s, s->n_levels - bt > CHRONO_T
                                     ? s->n_levels - 1
                                     : bt);
                    int32_t cref = alloc_clause(s, s->learnt_buf, n, lbd);
                    learnts_push(s, cref);
                    watch_clause(s, cref);
                    enqueue(s, s->learnt_buf[0], cref, bt);
                }
                s->var_inc /= s->var_decay;
            }
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
                restart_limit = RESTART_BASE * luby(restart_round);
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
            if (v == 0) enqueue(s, l, -1, s->n_levels);
            continue;
        }

        /* regular decision: the order's first unassigned literal, else
         * VSIDS */
        int32_t l;
        while (cursor < n_order && lit_value(s, ext2int(order[cursor])) != 0)
            cursor++;
        if (cursor < n_order) {
            l = ext2int(order[cursor]);
        } else {
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
            l = s->phase[var] ? 2 * var : 2 * var + 1;
        }
        s->decisions++;
        if (time_budget >= 0 && (s->decisions & 1023) == 0 &&
            now_seconds() - start > time_budget)
            return give_up(s, ext_assumps, n_assumps);
        s->trail_lim[s->n_levels++] = s->trail_sz;
        enqueue(s, l, -1, s->n_levels);
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
    if (s->core_sz) memcpy(out, s->core, s->core_sz * sizeof(int32_t));
}

/* Point the saved phase of each literal's variable at "literal false"
 * (lex-min witness extraction steers its probes this way). */
void rsat_phases_false(CSolver *s, const int32_t *lits, int32_t n) {
    for (int32_t i = 0; i < n; i++) {
        int32_t var = abs(lits[i]);
        if (var >= 1 && var <= s->nvars) s->phase[var - 1] = lits[i] < 0;
    }
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

/* ------------------------------------------------------ frame encoder
 *
 * One rsat_encode_frame call encodes one time frame of a cone compiled
 * by repro.bmc.unroll: it assigns the frame's input and flop-Q
 * literals, folds and hashes every gate by exactly the rules and memo
 * keys of repro.sat.tseitin.GateHasher, stages the Tseitin clauses of
 * each new gate as that module's encode_* helpers write them, and
 * hands the frame to the solver with ClauseBuffer.flush's split: the
 * variables staged before the first clause, that clause, the other
 * variables, the other clauses. Gate for gate it returns the literal
 * GateHasher returns and allocates what it allocates, in the same
 * order, so the solver receives the Python encoder's formula exactly
 * (DESIGN.md decision 27). Without a solver the frame stays staged for
 * the caller to copy out.
 *
 * A program lives in slots: slot 0 is the constant-0 net, slot 1 the
 * constant-1 net, and every other net of the cone has one slot; a
 * frame's literals are one int32 per slot. rsat_program_new checks
 * every slot, kind and arity once, so no frame reads or writes outside
 * its arrays. */

/* cell kinds of a program */
enum { G_AND, G_OR, G_NAND, G_NOR, G_XOR, G_XNOR, G_BUF, G_NOT, G_MUX,
       G_KINDS };
/* memo key tags: AND (OR, NAND and NOR by De Morgan), XOR (XNOR), MUX */
enum { M_AND = 1, M_XOR = 2, M_MUX = 3 };
/* frame-0 flop Qs */
enum { S_RESET, S_FREE, S_GIVEN };

typedef struct {
    int32_t n_slots, n_inputs, n_flops, max_arity;
    int32_t *inputs; /* [slot, pin] per input bit; pin -1 = fresh */
    int32_t *flops;  /* [q, d, init] per flop */
    int32_t *cells;  /* [kind, out, n, in_0 .. in_n-1] per cell */
    int64_t cells_len;
    /* first cell input read before anything writes it, and first flop
     * whose D nothing writes; -1 when none. A frame that would read
     * such a slot is refused before it changes anything. */
    int64_t bad_read;
    int32_t bad_d;
} RProgram;

typedef struct {
    int32_t true_lit;
    /* memo: entries [tag, n, out, key_1 .. key_n] in one arena; an
     * open-addressed table of arena offset + 1 (0 = empty) beside each
     * entry's hash */
    int32_t *keys;
    int64_t keys_sz, keys_cap;
    int64_t *slot_off;
    uint32_t *slot_hash;
    int64_t table_cap, count;
    /* per variable, the arena offset + 1 of its MUX entry (0 = not a
     * MUX), for gate_xor's XOR-over-MUX rule */
    int64_t *mux_at;
    int64_t mux_cap;
    /* the staged frame: clauses [k, l_1 .. l_k, k, ...] and variables
     * base+1 .. base+staged, lead of them staged before the first
     * clause */
    int32_t *packed;
    int64_t packed_sz, packed_cap;
    int32_t base, staged, lead;
    /* one gate's input literals and its canonical key */
    int32_t *ins, *key;
    int32_t scratch_cap;
} RGates;

static int32_t *ints_dup(const int32_t *src, int64_t n) {
    int32_t *dst = (int32_t *)xrealloc(NULL, (size_t)n * sizeof(int32_t));
    if (n) memcpy(dst, src, (size_t)n * sizeof(int32_t));
    return dst;
}

void rsat_program_free(RProgram *p) {
    if (!p) return;
    free(p->inputs);
    free(p->flops);
    free(p->cells);
    free(p);
}

/* Copy and check a compiled cone. Returns NULL, with *bad set to the
 * offset of the offending int in inputs ++ flops ++ cells, when a slot
 * is out of range (or a write targets a constant slot), a kind or pin
 * is unknown, or an arity is wrong. */
RProgram *rsat_program_new(const int32_t *inputs, int32_t n_inputs,
                           const int32_t *flops, int32_t n_flops,
                           const int32_t *cells, int64_t cells_len,
                           int32_t n_slots, int64_t *bad) {
    int64_t base_flops = 2 * (int64_t)n_inputs;
    int64_t base_cells = base_flops + 3 * (int64_t)n_flops;
    *bad = -1;
    if (n_slots < 2 || n_inputs < 0 || n_flops < 0 || cells_len < 0) {
        *bad = 0;
        return NULL;
    }
    uint8_t *written = (uint8_t *)calloc((size_t)n_slots, 1);
    if (!written) abort();
    RProgram *p = (RProgram *)calloc(1, sizeof(RProgram));
    if (!p) abort();
    p->n_slots = n_slots;
    p->n_inputs = n_inputs;
    p->n_flops = n_flops;
    p->max_arity = 3;
    p->bad_read = -1;
    p->bad_d = -1;
    written[0] = written[1] = 1;
    for (int32_t i = 0; i < n_inputs && *bad < 0; i++) {
        int32_t slot = inputs[2 * i], pin = inputs[2 * i + 1];
        if (slot < 2 || slot >= n_slots) *bad = 2 * i;
        else if (pin < -1 || pin > 1) *bad = 2 * i + 1;
        else written[slot] = 1;
    }
    for (int32_t i = 0; i < n_flops && *bad < 0; i++) {
        const int32_t *f = flops + 3 * i;
        if (f[0] < 2 || f[0] >= n_slots) *bad = base_flops + 3 * i;
        else if (f[1] < 0 || f[1] >= n_slots) *bad = base_flops + 3 * i + 1;
        else if (f[2] != 0 && f[2] != 1) *bad = base_flops + 3 * i + 2;
        else written[f[0]] = 1;
    }
    for (int64_t i = 0; i < cells_len && *bad < 0;) {
        if (cells_len - i < 3) {
            *bad = base_cells + i;
            break;
        }
        int32_t kind = cells[i], out = cells[i + 1], n = cells[i + 2];
        if (kind < 0 || kind >= G_KINDS) *bad = base_cells + i;
        else if (out < 2 || out >= n_slots) *bad = base_cells + i + 1;
        else if (n < 1 || n > cells_len - i - 3 ||
                 ((kind == G_BUF || kind == G_NOT) && n != 1) ||
                 (kind == G_MUX && n != 3))
            *bad = base_cells + i + 2;
        if (*bad >= 0) break;
        for (int32_t j = 0; j < n; j++) {
            int32_t in = cells[i + 3 + j];
            if (in < 0 || in >= n_slots) {
                *bad = base_cells + i + 3 + j;
                break;
            }
            if (!written[in] && p->bad_read < 0) p->bad_read = i + 3 + j;
        }
        written[out] = 1;
        if (n > p->max_arity) p->max_arity = n;
        i += 3 + (int64_t)n;
    }
    for (int32_t i = 0; i < n_flops && *bad < 0 && p->bad_d < 0; i++)
        if (!written[flops[3 * i + 1]]) p->bad_d = i;
    free(written);
    if (*bad >= 0) {
        free(p);
        return NULL;
    }
    p->inputs = ints_dup(inputs, 2 * (int64_t)n_inputs);
    p->flops = ints_dup(flops, 3 * (int64_t)n_flops);
    p->cells = ints_dup(cells, cells_len);
    p->cells_len = cells_len;
    return p;
}

int32_t rsat_program_slots(const RProgram *p) { return p->n_slots; }

RGates *rsat_gates_new(int32_t true_lit) {
    RGates *g = (RGates *)calloc(1, sizeof(RGates));
    if (!g) abort();
    g->true_lit = true_lit;
    g->table_cap = 1024;
    g->slot_off = (int64_t *)calloc((size_t)g->table_cap, sizeof(int64_t));
    g->slot_hash = (uint32_t *)calloc((size_t)g->table_cap, sizeof(uint32_t));
    if (!g->slot_off || !g->slot_hash) abort();
    return g;
}

void rsat_gates_free(RGates *g) {
    if (!g) return;
    free(g->keys);
    free(g->slot_off);
    free(g->slot_hash);
    free(g->mux_at);
    free(g->packed);
    free(g->ins);
    free(g->key);
    free(g);
}

/* number of gates in the memo */
int64_t rsat_gates_count(const RGates *g) { return g->count; }

static uint32_t key_hash(int32_t tag, const int32_t *key, int32_t n) {
    uint64_t h = 0x9e3779b97f4a7c15ull * (uint64_t)(tag + 1);
    for (int32_t i = 0; i < n; i++) {
        h ^= (uint32_t)key[i];
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 32;
    }
    return (uint32_t)h;
}

static void memo_grow(RGates *g) {
    int64_t cap = g->table_cap * 2;
    int64_t *off = (int64_t *)calloc((size_t)cap, sizeof(int64_t));
    uint32_t *hash = (uint32_t *)calloc((size_t)cap, sizeof(uint32_t));
    if (!off || !hash) abort();
    for (int64_t i = 0; i < g->table_cap; i++) {
        if (!g->slot_off[i]) continue;
        int64_t j = g->slot_hash[i] & (cap - 1);
        while (off[j]) j = (j + 1) & (cap - 1);
        off[j] = g->slot_off[i];
        hash[j] = g->slot_hash[i];
    }
    free(g->slot_off);
    free(g->slot_hash);
    g->slot_off = off;
    g->slot_hash = hash;
    g->table_cap = cap;
}

static int32_t stage_var(RGates *g) {
    if (!g->packed_sz) g->lead++;
    return g->base + ++g->staged;
}

/* room for one staged clause of n literals; returns where they go */
static int32_t *stage_clause(RGates *g, int32_t n) {
    if (g->packed_sz + n + 1 > g->packed_cap) {
        int64_t cap = g->packed_cap ? g->packed_cap : 1 << 12;
        while (cap < g->packed_sz + n + 1) cap *= 2;
        g->packed = (int32_t *)xrealloc(g->packed, cap * sizeof(int32_t));
        g->packed_cap = cap;
    }
    int32_t *c = g->packed + g->packed_sz;
    c[0] = n;
    g->packed_sz += n + 1;
    return c + 1;
}

/* tseitin.encode_and: out <-> AND(lits) */
static void encode_and(RGates *g, int32_t out, const int32_t *lits,
                       int32_t n) {
    for (int32_t i = 0; i < n; i++) {
        int32_t *c = stage_clause(g, 2);
        c[0] = -out;
        c[1] = lits[i];
    }
    int32_t *c = stage_clause(g, n + 1);
    c[0] = out;
    for (int32_t i = 0; i < n; i++) c[i + 1] = -lits[i];
}

static void encode_xor2(RGates *g, int32_t out, int32_t a, int32_t b) {
    int32_t *c = stage_clause(g, 3);
    c[0] = -out, c[1] = a, c[2] = b;
    c = stage_clause(g, 3);
    c[0] = -out, c[1] = -a, c[2] = -b;
    c = stage_clause(g, 3);
    c[0] = out, c[1] = -a, c[2] = b;
    c = stage_clause(g, 3);
    c[0] = out, c[1] = a, c[2] = -b;
}

/* tseitin.encode_xor: a chain of 2-input XORs, links allocated as it
 * goes, the last one out */
static void encode_xor(RGates *g, int32_t out, const int32_t *lits,
                       int32_t n) {
    int32_t acc = lits[0];
    for (int32_t i = 1; i < n; i++) {
        int32_t next = i == n - 1 ? out : stage_var(g);
        encode_xor2(g, next, acc, lits[i]);
        acc = next;
    }
}

static void encode_mux(RGates *g, int32_t out, int32_t sel, int32_t d0,
                       int32_t d1) {
    const int32_t rows[6][3] = {
        {-sel, -d1, out}, {-sel, d1, -out}, {sel, -d0, out},
        {sel, d0, -out},  {d0, d1, -out},   {-d0, -d1, out},
    };
    for (int i = 0; i < 6; i++) memcpy(stage_clause(g, 3), rows[i], 12);
}

/* The variable of the gate (tag, key[0..n-1]): the memo's, or a new
 * staged one with its clauses. */
static int32_t memo_gate(RGates *g, int32_t tag, const int32_t *key,
                         int32_t n) {
    if ((g->count + 1) * 2 > g->table_cap) memo_grow(g);
    uint32_t h = key_hash(tag, key, n);
    int64_t mask = g->table_cap - 1, i = h & mask;
    for (; g->slot_off[i]; i = (i + 1) & mask) {
        const int32_t *e = g->keys + g->slot_off[i] - 1;
        if (g->slot_hash[i] == h && e[0] == tag && e[1] == n &&
            !memcmp(e + 3, key, (size_t)n * sizeof(int32_t)))
            return e[2];
    }
    int32_t out = stage_var(g);
    if (g->keys_sz + n + 3 > g->keys_cap) {
        int64_t cap = g->keys_cap ? g->keys_cap : 1 << 12;
        while (cap < g->keys_sz + n + 3) cap *= 2;
        g->keys = (int32_t *)xrealloc(g->keys, cap * sizeof(int32_t));
        g->keys_cap = cap;
    }
    int32_t *e = g->keys + g->keys_sz;
    e[0] = tag;
    e[1] = n;
    e[2] = out;
    memcpy(e + 3, key, (size_t)n * sizeof(int32_t));
    g->slot_off[i] = g->keys_sz + 1;
    g->slot_hash[i] = h;
    if (tag == M_MUX) {
        if (out >= g->mux_cap) {
            int64_t cap = g->mux_cap ? g->mux_cap : 1 << 10;
            while (cap <= out) cap *= 2;
            g->mux_at = (int64_t *)xrealloc(g->mux_at, cap * sizeof(int64_t));
            memset(g->mux_at + g->mux_cap, 0,
                   (size_t)(cap - g->mux_cap) * sizeof(int64_t));
            g->mux_cap = cap;
        }
        g->mux_at[out] = g->keys_sz + 1;
    }
    g->keys_sz += n + 3;
    g->count++;
    if (tag == M_AND) encode_and(g, out, key, n);
    else if (tag == M_XOR) encode_xor(g, out, key, n);
    else encode_mux(g, out, key[0], key[1], key[2]);
    return out;
}

/* the key (sel, d0, d1) of the MUX whose variable is v, else NULL */
static const int32_t *mux_key(const RGates *g, int32_t v) {
    return v < g->mux_cap && g->mux_at[v] ? g->keys + g->mux_at[v] + 2
                                          : NULL;
}

static int int_cmp(const void *a, const void *b) {
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* ascending, as Python sorts ints */
static void sort_lits(int32_t *a, int32_t n) {
    if (n > 16) {
        qsort(a, (size_t)n, sizeof(int32_t), int_cmp);
        return;
    }
    for (int32_t i = 1; i < n; i++) {
        int32_t x = a[i], j = i;
        for (; j > 0 && a[j - 1] > x; j--) a[j] = a[j - 1];
        a[j] = x;
    }
}

/* GateHasher.and_: true inputs and repeats drop, a false input or a
 * complementary pair makes it false, one input left is that input; the
 * key is the rest, ascending */
static int32_t gate_and(RGates *g, const int32_t *ins, int32_t n) {
    int32_t t = g->true_lit, *k = g->key, m = 0, w = 0;
    for (int32_t i = 0; i < n; i++) {
        if (ins[i] == t) continue;
        if (ins[i] == -t) return -t;
        k[m++] = ins[i];
    }
    sort_lits(k, m);
    for (int32_t i = 0; i < m; i++)
        if (!w || k[w - 1] != k[i]) k[w++] = k[i];
    /* negatives run toward zero, then positives away from it: walk
     * both outward from zero, by magnitude, for a complementary pair */
    int32_t neg = 0;
    while (neg < w && k[neg] < 0) neg++;
    for (int32_t i = neg - 1, j = neg; i >= 0 && j < w;) {
        if (-k[i] == k[j]) return -t;
        if (-k[i] < k[j]) i--;
        else j++;
    }
    if (w < 2) return w ? k[0] : t;
    return memo_gate(g, M_AND, k, w);
}

static int32_t gate_mux(RGates *g, int32_t sel, int32_t d0, int32_t d1);
static int32_t gate_xor(RGates *g, const int32_t *ins, int32_t n);

/* GateHasher._xor_mux: XOR(a, b) as MUX(sel, XOR(d0, x), XOR(d1, x))
 * when one of a, b is a MUX m and the other, x, is the variable of a
 * data input of m or of a data input of a MUX that is one of m's data
 * inputs; 0 when neither is. The key is copied out first: the
 * recursion may grow the arena. */
static int32_t xor_mux(RGates *g, int32_t a, int32_t b) {
    const int32_t pairs[2][2] = {{a, b}, {b, a}};
    for (int i = 0; i < 2; i++) {
        int32_t x = pairs[i][1];
        const int32_t *key = mux_key(g, pairs[i][0]);
        if (!key) continue;
        int32_t sel = key[0], d0 = key[1], d1 = key[2];
        int32_t near[2] = {d0, abs(d1)};
        int hit = x == near[0] || x == near[1];
        for (int j = 0; j < 2 && !hit; j++) {
            const int32_t *inner = mux_key(g, near[j]);
            hit = inner && (x == inner[1] || x == abs(inner[2]));
        }
        if (hit) {
            int32_t p0[2] = {d0, x}, p1[2] = {d1, x};
            int32_t r0 = gate_xor(g, p0, 2);
            int32_t r1 = gate_xor(g, p1, 2);
            return gate_mux(g, sel, r0, r1);
        }
    }
    return 0;
}

/* GateHasher.xor: signs and constants fold into one output flip, and a
 * variable seen an even number of times cancels; two variables left
 * may fold through a MUX (xor_mux), else the rest is the key */
static int32_t gate_xor(RGates *g, const int32_t *ins, int32_t n) {
    int32_t t = g->true_lit, *k = g->key, m = 0, w = 0, flip = 0;
    for (int32_t i = 0; i < n; i++) {
        int32_t x = ins[i];
        if (x < 0) {
            flip ^= 1;
            x = -x;
        }
        if (x == t) flip ^= 1;
        else k[m++] = x;
    }
    sort_lits(k, m);
    for (int32_t i = 0, j; i < m; i = j) {
        for (j = i; j < m && k[j] == k[i]; j++) {}
        if ((j - i) & 1) k[w++] = k[i];
    }
    /* k is g->key, which the fold's recursion reuses: pass it copied */
    int32_t out = w == 2 ? xor_mux(g, k[0], k[1]) : 0;
    if (!out) out = w < 2 ? (w ? k[0] : -t) : memo_gate(g, M_XOR, k, w);
    return flip ? -out : out;
}

/* GateHasher.mux: sel ? d1 : d0 */
static int32_t gate_mux(RGates *g, int32_t sel, int32_t d0, int32_t d1) {
    int32_t t = g->true_lit;
    if (sel < 0) {
        int32_t x = d0;
        sel = -sel;
        d0 = d1;
        d1 = x;
    }
    if (sel == t || d0 == d1) return sel == t ? d1 : d0;
    if (d0 == -d1) {
        int32_t pair[2] = {sel, d0};
        return gate_xor(g, pair, 2);
    }
    if (d0 == -t || d0 == sel) { /* sel & d1 */
        int32_t pair[2] = {sel, d1};
        return gate_and(g, pair, 2);
    }
    if (d0 == t || d0 == -sel) { /* -sel | d1 */
        int32_t pair[2] = {sel, -d1};
        return -gate_and(g, pair, 2);
    }
    if (d1 == -t || d1 == -sel) { /* -sel & d0 */
        int32_t pair[2] = {-sel, d0};
        return gate_and(g, pair, 2);
    }
    if (d1 == t || d1 == sel) { /* sel | d0 */
        int32_t pair[2] = {-sel, -d0};
        return -gate_and(g, pair, 2);
    }
    int flip = d0 < 0; /* MUX(s, -a, -b) = -MUX(s, a, b) */
    int32_t key[3] = {sel, flip ? -d0 : d0, flip ? -d1 : d1};
    int32_t out = memo_gate(g, M_MUX, key, 3);
    return flip ? -out : out;
}

static int lit_ok(int32_t lit, int32_t nvars) {
    return lit != 0 && lit <= nvars && lit >= -nvars;
}

/* Encode one frame of p into lits (n_slots ints). prev is the previous
 * frame's lits, NULL for frame 0; supplied (one literal per input bit,
 * 0 = none) may be NULL; state (one literal per flop) is read only for
 * frame 0 in mode S_GIVEN. With a solver s the frame is added to it
 * and nvars is ignored; without one it stays staged over variables
 * from nvars + 1 on (rsat_gates_staged). Returns the number of new
 * variables; -1 when the frame would read a net nothing drives, -2
 * when the true, a supplied, a state or a previous literal is zero or
 * names an unallocated variable. An error changes nothing. */
int64_t rsat_encode_frame(RGates *g, const RProgram *p, CSolver *s,
                          int32_t nvars, int32_t *lits, const int32_t *prev,
                          const int32_t *supplied, const int32_t *state,
                          int32_t mode) {
    int32_t t = g->true_lit;
    if (s) nvars = s->nvars;
    if (p->bad_read >= 0 || (prev && p->bad_d >= 0)) return -1;
    if (!lit_ok(t, nvars) || t < 0) return -2;
    for (int32_t i = 0; supplied && i < p->n_inputs; i++)
        if (supplied[i] && !lit_ok(supplied[i], nvars)) return -2;
    for (int32_t i = 0; i < p->n_flops; i++) {
        if (prev ? !lit_ok(prev[p->flops[3 * i + 1]], nvars)
                 : mode == S_GIVEN && !lit_ok(state[i], nvars))
            return -2;
    }
    if (p->max_arity > g->scratch_cap) {
        g->scratch_cap = p->max_arity;
        g->ins = (int32_t *)xrealloc(g->ins, p->max_arity * sizeof(int32_t));
        g->key = (int32_t *)xrealloc(g->key, p->max_arity * sizeof(int32_t));
    }
    g->base = nvars;
    g->staged = g->lead = 0;
    g->packed_sz = 0;
    memset(lits, 0, (size_t)p->n_slots * sizeof(int32_t));
    lits[0] = -t;
    lits[1] = t;
    for (int32_t i = 0; i < p->n_inputs; i++) {
        int32_t pin = p->inputs[2 * i + 1];
        int32_t x = supplied ? supplied[i] : 0;
        if (!x) x = pin < 0 ? stage_var(g) : pin ? t : -t;
        lits[p->inputs[2 * i]] = x;
    }
    for (int32_t i = 0; i < p->n_flops; i++) {
        const int32_t *f = p->flops + 3 * i;
        int32_t x;
        if (prev) x = prev[f[1]];
        else if (mode == S_RESET) x = f[2] ? t : -t;
        else if (mode == S_FREE) x = stage_var(g);
        else x = state[i];
        lits[f[0]] = x;
    }
    int32_t *x = g->ins;
    for (int64_t i = 0; i < p->cells_len;) {
        int32_t kind = p->cells[i], n = p->cells[i + 2];
        const int32_t *in = p->cells + i + 3;
        int32_t r;
        if (kind == G_OR || kind == G_NOR)
            for (int32_t j = 0; j < n; j++) x[j] = -lits[in[j]];
        else
            for (int32_t j = 0; j < n; j++) x[j] = lits[in[j]];
        switch (kind) {
        case G_AND: r = gate_and(g, x, n); break;
        case G_OR: r = -gate_and(g, x, n); break;
        case G_NAND: r = -gate_and(g, x, n); break;
        case G_NOR: r = gate_and(g, x, n); break;
        case G_XOR: r = gate_xor(g, x, n); break;
        case G_XNOR: r = -gate_xor(g, x, n); break;
        case G_BUF: r = x[0]; break;
        case G_NOT: r = -x[0]; break;
        default: r = gate_mux(g, x[0], x[1], x[2]); break;
        }
        lits[p->cells[i + 1]] = r;
        i += 3 + (int64_t)n;
    }
    if (s) {
        const int32_t *c = g->packed;
        int64_t head = g->packed_sz ? c[0] + 1 : 0;
        rsat_new_vars(s, g->lead);
        if (head) rsat_add_clause(s, c + 1, c[0]);
        rsat_new_vars(s, g->staged - g->lead);
        for (int64_t i = head; i < g->packed_sz; i += c[i] + 1)
            rsat_add_clause(s, c + i + 1, c[i]);
    }
    return g->staged;
}

/* The staged frame of a solver-less rsat_encode_frame: its lead
 * variable count, and its clauses copied into out (room for
 * rsat_gates_staged_len ints). */
int32_t rsat_gates_lead(const RGates *g) { return g->lead; }
int64_t rsat_gates_staged_len(const RGates *g) { return g->packed_sz; }
void rsat_gates_staged(const RGates *g, int32_t *out) {
    if (g->packed_sz)
        memcpy(out, g->packed, (size_t)g->packed_sz * sizeof(int32_t));
}
