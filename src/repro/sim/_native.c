/* Bit-parallel logic simulation kernel behind repro.sim.engine.
 *
 * Net values are uint64 words indexed by net id: bit k of a net's word
 * is that net's value under stimulus lane k, so one call evaluates up
 * to 64 patterns. Each entry point is one C pass per Python call:
 *
 *   rsim_eval       one levelized pass over a flat cell program
 *   rsim_clock      one flop update, every D sampled before any Q moves
 *   rsim_set_lanes  one lane transposition: per-lane port words become
 *                   per-net lane words
 *
 * The operators are those of the Python interpreter
 * (CombEvaluator.interpret), so every word equals the one it computes
 * on the same inputs. The Python wrapper checks every value array's
 * length against the largest net id a program or flop list touches
 * before it calls eval or clock; set_lanes checks its nets itself,
 * since they change from call to call. No randomness, no allocation.
 */

#include <stdint.h>

/* Cell kinds of a program; bit 3 marks the inverting ones, whose
 * result is complemented within the lane mask. */
enum {
    K_AND = 0, K_OR = 1, K_XOR = 2, K_BUF = 3, K_MUX = 4,
    K_INVERT = 8,
    K_NAND = K_INVERT | K_AND, K_NOR = K_INVERT | K_OR,
    K_XNOR = K_INVERT | K_XOR, K_NOT = K_INVERT | K_BUF,
};

/* One pass over a program of len int32s, [kind, out, n, in_0 .. in_n-1]
 * per cell in evaluation order. AND/OR/XOR reductions take any n >= 1;
 * BUF and NOT take one input, MUX (sel, d0, d1). */
void rsim_eval(uint64_t *v, const int32_t *prog, int64_t len, uint64_t mask)
{
    const int32_t *p = prog, *end = prog + len;
    while (p < end) {
        int32_t kind = p[0], out = p[1], n = p[2], i;
        const int32_t *in = p + 3;
        uint64_t acc = v[in[0]];
        switch (kind & ~K_INVERT) {
        case K_AND:
            for (i = 1; i < n; i++) acc &= v[in[i]];
            break;
        case K_OR:
            for (i = 1; i < n; i++) acc |= v[in[i]];
            break;
        case K_XOR:
            for (i = 1; i < n; i++) acc ^= v[in[i]];
            break;
        case K_MUX: {
            /* (d0 & ~sel) | (d1 & sel), bit for bit */
            uint64_t d0 = v[in[1]];
            acc = d0 ^ ((d0 ^ v[in[2]]) & acc);
            break;
        }
        default: /* K_BUF */
            break;
        }
        v[out] = (kind & K_INVERT) ? ~acc & mask : acc;
        p = in + n;
    }
}

/* Q <= D for n flops; scratch holds n words. A D may be another
 * flop's Q (a shift chain, a register swap), so every D is sampled
 * before any Q is written. */
void rsim_clock(uint64_t *v, const int32_t *d, const int32_t *q, int32_t n,
                uint64_t *scratch)
{
    int32_t i;
    for (i = 0; i < n; i++) scratch[i] = v[d[i]];
    for (i = 0; i < n; i++) v[q[i]] = scratch[i];
}

/* In-place transpose of a 64x64 bit matrix: bit c of a[r] moves to bit
 * r of a[c]. Six rounds swap ever smaller off-diagonal blocks. */
static void transpose64(uint64_t a[64])
{
    uint64_t m = 0x00000000FFFFFFFFULL, t;
    int j, k;
    for (j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (k = 0; k < 64; k = ((k | j) + 1) & ~j) {
            t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
        }
    }
}

/* Drive width nets from nwords (<= 64) lane words: bit i of nets[i]'s
 * new word k is bit i of words[k]. Word k is slot little-endian bytes
 * at words + k * slot; bits at or above width are ignored, and lanes
 * nwords..63 are driven to 0. Returns 0, or -1 (and writes nothing)
 * when a net lies outside the nvalues-word value array. */
int32_t rsim_set_lanes(uint64_t *v, int64_t nvalues, const int32_t *nets,
                       int32_t width, const uint8_t *words, int32_t slot,
                       int32_t nwords)
{
    uint64_t a[64];
    int32_t base, i, k, b;
    for (i = 0; i < width; i++)
        if (nets[i] < 0 || nets[i] >= nvalues) return -1;
    for (base = 0; base < width; base += 64) {
        int32_t first = base / 8, n = width - base < 64 ? width - base : 64;
        for (k = 0; k < 64; k++) {
            uint64_t w = 0;
            if (k < nwords) {
                const uint8_t *bytes = words + (int64_t)k * slot + first;
                for (b = 0; b < 8 && first + b < slot; b++)
                    w |= (uint64_t)bytes[b] << (8 * b);
            }
            a[k] = w;
        }
        transpose64(a);
        for (i = 0; i < n; i++) v[nets[base + i]] = a[i];
    }
    return 0;
}
