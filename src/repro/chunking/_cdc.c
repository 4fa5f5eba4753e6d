/* Karp-Rabin content-defined cut points in one pass over the bytes.
 *
 * The same hash and the same min/max/tail selection as
 * repro.chunking.reference (the spec) and _select.select_cut_points,
 * fused: a chunk starting at `start` only looks at positions from
 * start + min_size on, so the window hash is re-seeded there from its
 * w bytes (exact, because a candidate depends only on its window) and
 * rolled forward until the first candidate.  No candidate array exists.
 * Built and loaded by _cdc.py; all arithmetic wraps modulo 2^64.
 */
#include <stddef.h>
#include <stdint.h>

/* First p in [lo, hi] with H(p) * final < threshold, else hi + 1. */
static size_t first_candidate(const uint8_t *data, size_t lo, size_t hi, size_t w,
                              uint64_t mult, uint64_t mult_w, uint64_t final,
                              uint64_t threshold)
{
    if (lo < w)
        lo = w;
    if (lo > hi)
        return hi + 1;
    uint64_t h = 0;
    for (size_t j = lo - w; j < lo; j++)
        h = h * mult + data[j];
    for (size_t p = lo;; p++) {
        if (h * final < threshold)
            return p;
        if (p == hi)
            return hi + 1;
        /* H(p+1) = H(p) M + b[p] - b[p-w] M^w */
        h = h * mult + data[p] - data[p - w] * mult_w;
    }
}

/* Cut points of data[hist:len], as positions in data; the last is len.
 * `out` holds at least (len - hist) / min_size + 1 entries.  Returns
 * how many were written.  Requires hist < len and 0 < min_size <= max_size. */
size_t repro_cdc_cut_points(const uint8_t *data, size_t len, size_t hist,
                            uint64_t mult, uint64_t final, uint64_t threshold,
                            size_t w, size_t min_size, size_t max_size, int64_t *out)
{
    uint64_t mult_w = 1;
    for (size_t i = 0; i < w; i++)
        mult_w *= mult;
    size_t start = hist, count = 0;
    while (len - start > max_size) {
        size_t hi = start + max_size;
        size_t c = first_candidate(data, start + min_size, hi, w, mult, mult_w, final, threshold);
        start = c <= hi ? c : hi;
        out[count++] = (int64_t)start;
    }
    /* Tail: a candidate may still split it, min_size away from the start. */
    while (len - start > min_size) {
        size_t c = first_candidate(data, start + min_size, len - 1, w, mult, mult_w, final,
                                   threshold);
        if (c >= len)
            break;
        start = c;
        out[count++] = (int64_t)start;
    }
    out[count++] = (int64_t)len;
    return count;
}
