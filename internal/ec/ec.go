// Package ec implements systematic Reed–Solomon erasure coding over
// GF(2^8): k data shards plus m parity shards, any k of which reconstruct
// the stripe. The distributed layer offers it alongside replication — both
// are "existing, end-to-end redundancy mechanisms" in the paper's sense,
// and §4.3's recovery-traffic comparison looks very different under EC
// (rebuilding one shard reads k survivors).
//
// The generator matrix is [I; C] with C a Cauchy matrix, whose every square
// submatrix is invertible — the property that makes any k-subset of shards
// sufficient.
package ec

import (
	"errors"
	"fmt"

	"salamander/internal/ecc"
)

// Errors returned by the codec.
var (
	ErrShardCount = errors.New("ec: wrong number of shards")
	ErrShardSize  = errors.New("ec: shards must be non-empty and equal length")
	ErrTooFewLive = errors.New("ec: not enough shards to reconstruct")
)

// Code is a systematic RS(k+m, k) erasure code.
type Code struct {
	K, M int
	f    *ecc.Field
	// matrix is the full (k+m) x k generator: shard_i = sum_j matrix[i][j]*data_j.
	matrix [][]uint32
	// mulTab[c] is the 256-entry multiply-by-c table, built lazily per
	// coefficient for fast row operations.
	mulTab map[uint32][]byte
}

// New constructs an RS code with k data and m parity shards (k+m <= 128 to
// keep Cauchy points comfortably distinct in GF(2^8)).
func New(k, m int) (*Code, error) {
	if k < 1 || m < 1 || k+m > 128 {
		return nil, fmt.Errorf("ec: invalid k=%d m=%d", k, m)
	}
	f := ecc.NewField(8)
	c := &Code{K: k, M: m, f: f, mulTab: map[uint32][]byte{}}
	c.matrix = make([][]uint32, k+m)
	for i := 0; i < k; i++ {
		row := make([]uint32, k)
		row[i] = 1
		c.matrix[i] = row
	}
	// Cauchy block: C[i][j] = 1/(x_i + y_j) with x_i = i+k, y_j = j; all
	// 2k+m points distinct, so x_i + y_j never vanishes.
	for i := 0; i < m; i++ {
		row := make([]uint32, k)
		xi := uint32(i + k)
		for j := 0; j < k; j++ {
			row[j] = f.Inv(xi ^ uint32(j))
		}
		c.matrix[k+i] = row
	}
	return c, nil
}

// table returns the 256-byte multiplication table for coefficient coef.
func (c *Code) table(coef uint32) []byte {
	if t, ok := c.mulTab[coef]; ok {
		return t
	}
	t := make([]byte, 256)
	for b := 0; b < 256; b++ {
		t[b] = byte(c.f.Mul(coef, uint32(b)))
	}
	c.mulTab[coef] = t
	return t
}

// mulAdd dst ^= coef * src, bytewise over GF(2^8).
func (c *Code) mulAdd(dst, src []byte, coef uint32) {
	if coef == 0 {
		return
	}
	if coef == 1 {
		for i := range dst {
			dst[i] ^= src[i]
		}
		return
	}
	t := c.table(coef)
	for i := range dst {
		dst[i] ^= t[src[i]]
	}
}

func shardLen(shards [][]byte) (int, error) {
	n := -1
	for _, s := range shards {
		if s == nil {
			continue
		}
		if n == -1 {
			n = len(s)
		} else if len(s) != n {
			return 0, ErrShardSize
		}
	}
	if n <= 0 {
		return 0, ErrShardSize
	}
	return n, nil
}

// EncodeParity computes the m parity shards for k data shards (all equal
// length).
func (c *Code) EncodeParity(data [][]byte) ([][]byte, error) {
	if len(data) != c.K {
		return nil, fmt.Errorf("%w: got %d data shards, want %d", ErrShardCount, len(data), c.K)
	}
	n, err := shardLen(data)
	if err != nil {
		return nil, err
	}
	for _, s := range data {
		if s == nil || len(s) != n {
			return nil, ErrShardSize
		}
	}
	parity := make([][]byte, c.M)
	for i := 0; i < c.M; i++ {
		p := make([]byte, n)
		row := c.matrix[c.K+i]
		for j := 0; j < c.K; j++ {
			c.mulAdd(p, data[j], row[j])
		}
		parity[i] = p
	}
	return parity, nil
}

// Reconstruct fills in the missing (nil) entries of shards, which must have
// length k+m. At least k shards must be present. The present shards are
// trusted; fully verifying consistency is the caller's job (the storage
// layer's per-device ECC already guarantees shard integrity).
func (c *Code) Reconstruct(shards [][]byte) error {
	if len(shards) != c.K+c.M {
		return fmt.Errorf("%w: got %d shards, want %d", ErrShardCount, len(shards), c.K+c.M)
	}
	n, err := shardLen(shards)
	if err != nil {
		return err
	}
	present := make([]int, 0, c.K)
	for i, s := range shards {
		if s != nil {
			present = append(present, i)
		}
	}
	if len(present) < c.K {
		return fmt.Errorf("%w: %d of %d", ErrTooFewLive, len(present), c.K)
	}
	present = present[:c.K]

	// Build the k x k submatrix mapping data -> the chosen present shards,
	// invert it, and recover the data shards.
	sub := make([][]uint32, c.K)
	for r, idx := range present {
		sub[r] = append([]uint32(nil), c.matrix[idx]...)
	}
	inv, err := c.invert(sub)
	if err != nil {
		return err
	}
	data := make([][]byte, c.K)
	for j := 0; j < c.K; j++ {
		if shards[j] != nil {
			data[j] = shards[j]
			continue
		}
		d := make([]byte, n)
		for r, idx := range present {
			c.mulAdd(d, shards[idx], inv[j][r])
		}
		data[j] = d
		shards[j] = d
	}
	// Recompute any missing parity from the (now complete) data.
	for i := 0; i < c.M; i++ {
		if shards[c.K+i] != nil {
			continue
		}
		p := make([]byte, n)
		row := c.matrix[c.K+i]
		for j := 0; j < c.K; j++ {
			c.mulAdd(p, data[j], row[j])
		}
		shards[c.K+i] = p
	}
	return nil
}

// invert returns the inverse of a k x k matrix over GF(2^8) by Gauss–Jordan
// elimination. Cauchy structure guarantees invertibility; a singular input
// indicates caller error.
func (c *Code) invert(m [][]uint32) ([][]uint32, error) {
	k := len(m)
	aug := make([][]uint32, k)
	for i := range aug {
		aug[i] = make([]uint32, 2*k)
		copy(aug[i], m[i])
		aug[i][k+i] = 1
	}
	for col := 0; col < k; col++ {
		pivot := -1
		for r := col; r < k; r++ {
			if aug[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, errors.New("ec: singular matrix")
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		// Normalize the pivot row.
		invP := c.f.Inv(aug[col][col])
		for j := 0; j < 2*k; j++ {
			aug[col][j] = c.f.Mul(aug[col][j], invP)
		}
		// Eliminate the column elsewhere.
		for r := 0; r < k; r++ {
			if r == col || aug[r][col] == 0 {
				continue
			}
			factor := aug[r][col]
			for j := 0; j < 2*k; j++ {
				aug[r][j] ^= c.f.Mul(factor, aug[col][j])
			}
		}
	}
	out := make([][]uint32, k)
	for i := range out {
		out[i] = aug[i][k:]
	}
	return out, nil
}
