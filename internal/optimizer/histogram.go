package optimizer

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// Histogram is an equi-depth histogram over one attribute: bucket
// boundaries chosen so each bucket holds roughly the same number of rows,
// with exact per-bucket row and distinct counts. Histograms refine the
// plain distinct-count estimator on skewed data, where the uniformity
// assumption misestimates badly.
type Histogram struct {
	// Bounds[i] is the inclusive upper bound of bucket i; buckets cover
	// (-∞, Bounds[0]], (Bounds[0], Bounds[1]], …
	Bounds []relation.Value
	// Rows[i] is the number of rows in bucket i.
	Rows []int64
	// Distinct[i] is the number of distinct values in bucket i.
	Distinct []int64
}

// BuildHistogram scans the relation's column attr and builds an equi-depth
// histogram with at most buckets buckets. It returns an error if the
// attribute is missing.
func BuildHistogram(r *relation.Relation, attr string, buckets int) (*Histogram, error) {
	pos, ok := r.Schema().Position(attr)
	if !ok {
		return nil, fmt.Errorf("optimizer: attribute %q not in schema %s", attr, r.Schema())
	}
	if buckets < 1 {
		return nil, fmt.Errorf("optimizer: need at least one bucket")
	}
	values := make([]relation.Value, r.Len())
	for i, row := range r.Rows() {
		values[i] = row[pos]
	}
	sort.Slice(values, func(i, j int) bool { return values[i].Compare(values[j]) < 0 })

	h := &Histogram{}
	n := len(values)
	if n == 0 {
		return h, nil
	}
	per := (n + buckets - 1) / buckets
	for start := 0; start < n; {
		end := start + per
		if end > n {
			end = n
		}
		// Extend the bucket so equal values never straddle a boundary.
		for end < n && values[end].Equal(values[end-1]) {
			end++
		}
		rows := int64(end - start)
		distinct := int64(1)
		for i := start + 1; i < end; i++ {
			if !values[i].Equal(values[i-1]) {
				distinct++
			}
		}
		h.Bounds = append(h.Bounds, values[end-1])
		h.Rows = append(h.Rows, rows)
		h.Distinct = append(h.Distinct, distinct)
		start = end
	}
	return h, nil
}

// EstimateEquiJoin estimates |σ(a.x = b.x)| — the number of matching pairs
// on the histogrammed attribute — by aligning the two histograms' bucket
// ranges and, within each overlap, assuming per-distinct-value uniformity.
// For single-attribute joins this is the estimated join size.
func EstimateEquiJoin(a, b *Histogram) int64 {
	if len(a.Bounds) == 0 || len(b.Bounds) == 0 {
		return 0
	}
	total := int64(0)
	i, j := 0, 0
	aLow, bLow := minimal(), minimal()
	for i < len(a.Bounds) && j < len(b.Bounds) {
		// Overlap of (aLow, a.Bounds[i]] with (bLow, b.Bounds[j]].
		low := aLow
		if bLow.Compare(low) > 0 {
			low = bLow
		}
		var high relation.Value
		advanceA := false
		if a.Bounds[i].Compare(b.Bounds[j]) <= 0 {
			high = a.Bounds[i]
			advanceA = true
		} else {
			high = b.Bounds[j]
		}
		if high.Compare(low) > 0 || (i == 0 && j == 0 && aLow.Equal(bLow)) {
			fa := fraction(aLow, a.Bounds[i], low, high)
			fb := fraction(bLow, b.Bounds[j], low, high)
			rowsA := float64(a.Rows[i]) * fa
			rowsB := float64(b.Rows[j]) * fb
			dA := float64(a.Distinct[i]) * fa
			dB := float64(b.Distinct[j]) * fb
			d := dA
			if dB > d {
				d = dB
			}
			if d >= 0.5 {
				total += int64(rowsA * rowsB / d)
			}
		}
		if advanceA {
			aLow = a.Bounds[i]
			i++
		} else {
			bLow = b.Bounds[j]
			j++
		}
	}
	return total
}

// fraction approximates what portion of the bucket (low0, high0] the
// sub-range (low, high] covers, using integer distance where possible and
// falling back to 1 for non-numeric values.
func fraction(low0, high0, low, high relation.Value) float64 {
	if low0.Kind() != relation.KindInt || high0.Kind() != relation.KindInt {
		return 1
	}
	span := high0.AsInt() - low0.AsInt()
	if span <= 0 {
		return 1
	}
	sub := high.AsInt() - low.AsInt()
	if sub < 0 {
		sub = 0
	}
	f := float64(sub) / float64(span)
	if f > 1 {
		return 1
	}
	return f
}

// minimal returns a value ordered before every integer and string value.
func minimal() relation.Value {
	return relation.Int(-1 << 62)
}
