// Package coll implements the collective-operation algorithms of the
// runtime over the core point-to-point engine: dissemination barrier,
// binomial broadcast/gather/scatter/reduce, ring allgather, pairwise
// alltoall, recursive-doubling allreduce, linear-chain scan, and the
// reduction operation kernels they share.
//
// Every algorithm is expressed as a schedule of isend/irecv/compute
// steps (sched.go) run by one parking executor. A collective call is a
// value (Call) taken by three executors: Run blocks on the caller,
// Start returns a *Request with Wait/Test/WaitCtx — cancellation points
// live inside the algorithm rounds, not just the point-to-point wait
// path — and Init returns a persistent operation (persistent.go). Tags
// carry a per-instance sequence number, letting any number of
// collectives on one communicator overlap in flight without
// cross-matching.
package coll

import (
	"fmt"
)

// ApplyFn folds one dense operand slice into another:
// inout[i] = op(in[i], inout[i]), where in is the operand contributed by
// the LOWER-ranked process. This matches the MPI user-function contract,
// so non-commutative user operations reduce in rank order.
type ApplyFn func(in, inout any) error

// Op is a reduction operation.
type Op struct {
	Name        string
	Commutative bool
	apply       ApplyFn
}

// NewOp wraps a user-defined reduction function (MPI_Op_create).
func NewOp(name string, commutative bool, fn ApplyFn) *Op {
	return &Op{Name: name, Commutative: commutative, apply: fn}
}

// Apply folds in into inout.
func (o *Op) Apply(in, inout any) error { return o.apply(in, inout) }

func (o *Op) String() string { return o.Name }

// numeric covers the storage classes arithmetic reductions accept.
type numeric interface {
	~byte | ~int16 | ~int32 | ~int64 | ~float32 | ~float64
}

// integer covers the classes bitwise reductions accept.
type integer interface {
	~byte | ~int16 | ~int32 | ~int64
}

func applyNum[T numeric](in, inout []T, f func(a, b T) T) {
	for i := range inout {
		inout[i] = f(in[i], inout[i])
	}
}

func applyBool(in, inout []bool, f func(a, b bool) bool) {
	for i := range inout {
		inout[i] = f(in[i], inout[i])
	}
}

// numOp builds an op defined on all numeric classes.
func numOp(name string, commutative bool, fi func(a, b int64) int64, ff func(a, b float64) float64) *Op {
	return NewOp(name, commutative, func(in, inout any) error {
		switch io := inout.(type) {
		case []byte:
			applyNum(in.([]byte), io, func(a, b byte) byte { return byte(fi(int64(a), int64(b))) })
		case []int16:
			applyNum(in.([]int16), io, func(a, b int16) int16 { return int16(fi(int64(a), int64(b))) })
		case []int32:
			applyNum(in.([]int32), io, func(a, b int32) int32 { return int32(fi(int64(a), int64(b))) })
		case []int64:
			applyNum(in.([]int64), io, fi)
		case []float32:
			applyNum(in.([]float32), io, func(a, b float32) float32 { return float32(ff(float64(a), float64(b))) })
		case []float64:
			applyNum(in.([]float64), io, ff)
		default:
			return fmt.Errorf("coll: op %s undefined on %T", name, inout)
		}
		return nil
	})
}

// intOp builds an op defined on integer classes only (bitwise family).
func intOp(name string, fi func(a, b int64) int64) *Op {
	return NewOp(name, true, func(in, inout any) error {
		switch io := inout.(type) {
		case []byte:
			applyNum(in.([]byte), io, func(a, b byte) byte { return byte(fi(int64(a), int64(b))) })
		case []int16:
			applyNum(in.([]int16), io, func(a, b int16) int16 { return int16(fi(int64(a), int64(b))) })
		case []int32:
			applyNum(in.([]int32), io, func(a, b int32) int32 { return int32(fi(int64(a), int64(b))) })
		case []int64:
			applyNum(in.([]int64), io, fi)
		default:
			return fmt.Errorf("coll: op %s undefined on %T", name, inout)
		}
		return nil
	})
}

// logicalOp builds an op defined on booleans and, following the C
// binding's convention (non-zero is true), on integer classes.
func logicalOp(name string, fb func(a, b bool) bool) *Op {
	toI := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	fi := func(a, b int64) int64 { return toI(fb(a != 0, b != 0)) }
	return NewOp(name, true, func(in, inout any) error {
		switch io := inout.(type) {
		case []bool:
			applyBool(in.([]bool), io, fb)
		case []byte:
			applyNum(in.([]byte), io, func(a, b byte) byte { return byte(fi(int64(a), int64(b))) })
		case []int16:
			applyNum(in.([]int16), io, func(a, b int16) int16 { return int16(fi(int64(a), int64(b))) })
		case []int32:
			applyNum(in.([]int32), io, func(a, b int32) int32 { return int32(fi(int64(a), int64(b))) })
		case []int64:
			applyNum(in.([]int64), io, fi)
		default:
			return fmt.Errorf("coll: op %s undefined on %T", name, inout)
		}
		return nil
	})
}

func applyLoc[T numeric](in, inout []T, max bool) {
	for i := 0; i+1 < len(inout); i += 2 {
		a, ai := in[i], in[i+1]
		b, bi := inout[i], inout[i+1]
		better := a > b
		if !max {
			better = a < b
		}
		// On equal values MPI selects the minimum index.
		if better || (a == b && ai < bi) {
			inout[i], inout[i+1] = a, ai
		}
	}
}

// locOp builds MINLOC/MAXLOC, operating on (value, index) pairs laid out
// as consecutive elements of one of the pair datatypes.
func locOp(name string, max bool) *Op {
	return NewOp(name, true, func(in, inout any) error {
		switch io := inout.(type) {
		case []byte:
			applyLoc(in.([]byte), io, max)
		case []int16:
			applyLoc(in.([]int16), io, max)
		case []int32:
			applyLoc(in.([]int32), io, max)
		case []int64:
			applyLoc(in.([]int64), io, max)
		case []float32:
			applyLoc(in.([]float32), io, max)
		case []float64:
			applyLoc(in.([]float64), io, max)
		default:
			return fmt.Errorf("coll: op %s undefined on %T", name, inout)
		}
		return nil
	})
}

// Predefined reduction operations (MPI §4.9.2).
var (
	Sum  = numOp("MPI_SUM", true, func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b })
	Prod = numOp("MPI_PROD", true, func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b })
	Max  = numOp("MPI_MAX", true, maxI, maxF)
	Min  = numOp("MPI_MIN", true, minI, minF)
	Land = logicalOp("MPI_LAND", func(a, b bool) bool { return a && b })
	Lor  = logicalOp("MPI_LOR", func(a, b bool) bool { return a || b })
	Lxor = logicalOp("MPI_LXOR", func(a, b bool) bool { return a != b })
	Band = intOp("MPI_BAND", func(a, b int64) int64 { return a & b })
	Bor  = intOp("MPI_BOR", func(a, b int64) int64 { return a | b })
	Bxor = intOp("MPI_BXOR", func(a, b int64) int64 { return a ^ b })

	MaxLoc = locOp("MPI_MAXLOC", true)
	MinLoc = locOp("MPI_MINLOC", false)
)

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
