// Package uint256 implements fixed-width 256-bit unsigned integer
// arithmetic with value semantics.
//
// All crypto-asset amounts in this repository are uint256.Int values, the
// same width the EVM uses for ERC20 balances. Value semantics (a plain
// [4]uint64 array, little-endian limbs) rule out the aliasing bugs that
// shared *big.Int pointers invite, and keep hot-path trade matching free
// of heap allocations.
package uint256

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Int is an unsigned 256-bit integer stored as four 64-bit limbs in
// little-endian order: Int[0] is the least significant limb.
//
// The zero value is ready to use and represents 0.
type Int [4]uint64

// Common errors returned by parsing and checked arithmetic.
var (
	// ErrOverflow reports that a result does not fit in 256 bits.
	ErrOverflow = errors.New("uint256: overflow")
	// ErrUnderflow reports that a subtraction went below zero.
	ErrUnderflow = errors.New("uint256: underflow")
	// ErrDivideByZero reports division by zero.
	ErrDivideByZero = errors.New("uint256: division by zero")
	// ErrSyntax reports a malformed numeric literal.
	ErrSyntax = errors.New("uint256: invalid syntax")
)

// Zero returns the zero value. It exists for readability at call sites.
func Zero() Int { return Int{} }

// One returns 1.
func One() Int { return Int{1} }

// Max returns the largest representable value, 2^256 - 1.
func Max() Int {
	m := ^uint64(0)
	return Int{m, m, m, m}
}

// FromUint64 returns v as an Int.
func FromUint64(v uint64) Int { return Int{v} }

// FromLimbs builds an Int directly from little-endian limbs.
func FromLimbs(l0, l1, l2, l3 uint64) Int { return Int{l0, l1, l2, l3} }

// IsZero reports whether x == 0.
func (x Int) IsZero() bool { return x[0]|x[1]|x[2]|x[3] == 0 }

// IsUint64 reports whether x fits in a uint64.
func (x Int) IsUint64() bool { return x[1]|x[2]|x[3] == 0 }

// Uint64 returns the low 64 bits of x. The caller is expected to have
// checked IsUint64 when truncation matters.
func (x Int) Uint64() uint64 { return x[0] }

// BitLen returns the number of bits required to represent x; 0 for x == 0.
func (x Int) BitLen() int {
	switch {
	case x[3] != 0:
		return 192 + bits.Len64(x[3])
	case x[2] != 0:
		return 128 + bits.Len64(x[2])
	case x[1] != 0:
		return 64 + bits.Len64(x[1])
	default:
		return bits.Len64(x[0])
	}
}

// Cmp compares x and y and returns -1, 0 or +1. Single-limb pairs (the
// common case for observed transfer amounts) compare with one branch;
// Cmp is too cheap relative to the counter to participate in fast-path
// hit-rate counting.
func (x Int) Cmp(y Int) int {
	if isUint64Pair(x, y) {
		switch {
		case x[0] < y[0]:
			return -1
		case x[0] > y[0]:
			return 1
		}
		return 0
	}
	for i := 3; i >= 0; i-- {
		switch {
		case x[i] < y[i]:
			return -1
		case x[i] > y[i]:
			return 1
		}
	}
	return 0
}

// Lt reports x < y.
func (x Int) Lt(y Int) bool { return x.Cmp(y) < 0 }

// Gt reports x > y.
func (x Int) Gt(y Int) bool { return x.Cmp(y) > 0 }

// Lte reports x <= y.
func (x Int) Lte(y Int) bool { return x.Cmp(y) <= 0 }

// Gte reports x >= y.
func (x Int) Gte(y Int) bool { return x.Cmp(y) >= 0 }

// Eq reports x == y.
func (x Int) Eq(y Int) bool { return x == y }

// Add returns x + y mod 2^256 together with the carry out of the top limb.
func (x Int) addWithCarry(y Int) (Int, uint64) {
	var z Int
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], c = bits.Add64(x[3], y[3], c)
	return z, c
}

// Add returns x + y, or ErrOverflow if the sum does not fit in 256 bits.
func (x Int) Add(y Int) (Int, error) {
	z, c := x.addWithCarry(y)
	if c != 0 {
		return Int{}, fmt.Errorf("%w: %s + %s", ErrOverflow, x, y)
	}
	return z, nil
}

// MustAdd returns x + y and panics on overflow. It is intended for
// arithmetic that is overflow-safe by construction (e.g. summing token
// balances whose total supply is bounded).
func (x Int) MustAdd(y Int) Int {
	z, err := x.Add(y)
	if err != nil {
		panic(err)
	}
	return z
}

// WrappingAdd returns x + y mod 2^256.
func (x Int) WrappingAdd(y Int) Int {
	z, _ := x.addWithCarry(y)
	return z
}

// Sub returns x - y, or ErrUnderflow if y > x.
func (x Int) Sub(y Int) (Int, error) {
	var z Int
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	if b != 0 {
		return Int{}, fmt.Errorf("%w: %s - %s", ErrUnderflow, x, y)
	}
	return z, nil
}

// MustSub returns x - y and panics on underflow.
func (x Int) MustSub(y Int) Int {
	z, err := x.Sub(y)
	if err != nil {
		panic(err)
	}
	return z
}

// SaturatingSub returns x - y, or 0 if y > x.
func (x Int) SaturatingSub(y Int) Int {
	z, err := x.Sub(y)
	if err != nil {
		return Int{}
	}
	return z
}

// AbsDiff returns |x - y|.
func (x Int) AbsDiff(y Int) Int {
	if isUint64Pair(x, y) {
		countHit()
		if x[0] >= y[0] {
			return Int{x[0] - y[0]}
		}
		return Int{y[0] - x[0]}
	}
	countFall()
	if x.Gte(y) {
		return x.MustSub(y)
	}
	return y.MustSub(x)
}

// mulFull returns the full 512-bit product of x and y as eight limbs.
func mulFull(x, y Int) [8]uint64 {
	var p [8]uint64
	for i := 0; i < 4; i++ {
		if y[i] == 0 {
			continue
		}
		var carry uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(x[j], y[i])
			var c uint64
			p[i+j], c = bits.Add64(p[i+j], lo, 0)
			hi += c
			p[i+j], c = bits.Add64(p[i+j], carry, 0)
			carry = hi + c
		}
		p[i+4] = carry
	}
	return p
}

// Mul returns x * y, or ErrOverflow if the product does not fit. A
// single-limb pair multiplies with one hardware instruction: a 64×64
// product cannot overflow 256 bits.
func (x Int) Mul(y Int) (Int, error) {
	if isUint64Pair(x, y) {
		countHit()
		return mul64(x[0], y[0]), nil
	}
	countFall()
	p := mulFull(x, y)
	if p[4]|p[5]|p[6]|p[7] != 0 {
		return Int{}, fmt.Errorf("%w: %s * %s", ErrOverflow, x, y)
	}
	return Int{p[0], p[1], p[2], p[3]}, nil
}

// MustMul returns x * y and panics on overflow.
func (x Int) MustMul(y Int) Int {
	z, err := x.Mul(y)
	if err != nil {
		panic(err)
	}
	return z
}

// MulUint64 returns x * v, or ErrOverflow. The multiplier is already a
// single limb, so even wide x needs only a limb-by-scalar pass; a
// single-limb x needs one instruction.
func (x Int) MulUint64(v uint64) (Int, error) {
	if x.IsUint64() {
		countHit()
		return mul64(x[0], v), nil
	}
	countFall()
	p := mulBy64(x, v)
	if p[4] != 0 {
		return Int{}, fmt.Errorf("%w: %s * %s", ErrOverflow, x, FromUint64(v))
	}
	return Int{p[0], p[1], p[2], p[3]}, nil
}

// divmod performs binary long division of the 512-bit numerator u by the
// non-zero 256-bit divisor d, returning the 512-bit quotient and 256-bit
// remainder. The remainder register is 5 limbs because the pre-subtraction
// shifted value can transiently need 257 bits.
func divmod(u [8]uint64, d Int) (q [8]uint64, r Int) {
	// Fast path: single-limb divisor. Leading zero limbs of the numerator
	// are skipped, so a numerator that is really one limb costs a single
	// hardware division.
	if d[1]|d[2]|d[3] == 0 {
		countHit()
		top := -1
		for i := 7; i >= 0; i-- {
			if u[i] != 0 {
				top = i
				break
			}
		}
		var rem uint64
		for i := top; i >= 0; i-- {
			q[i], rem = bits.Div64(rem, u[i], d[0])
		}
		return q, Int{rem}
	}
	countFall()
	// General path: bit-at-a-time restoring division.
	top := 0
	for i := 7; i >= 0; i-- {
		if u[i] != 0 {
			top = i*64 + bits.Len64(u[i])
			break
		}
	}
	var rem [5]uint64 // 257-bit working remainder
	for bit := top - 1; bit >= 0; bit-- {
		// rem = rem<<1 | u.bit(bit)
		var c uint64
		inBit := (u[bit/64] >> (uint(bit) % 64)) & 1
		for i := 0; i < 5; i++ {
			nc := rem[i] >> 63
			rem[i] = rem[i]<<1 | c
			c = nc
		}
		rem[0] |= inBit
		// if rem >= d { rem -= d; q.setBit(bit) }
		ge := rem[4] != 0
		if !ge {
			cmp := Int{rem[0], rem[1], rem[2], rem[3]}.Cmp(d)
			ge = cmp >= 0
		}
		if ge {
			var b uint64
			rem[0], b = bits.Sub64(rem[0], d[0], 0)
			rem[1], b = bits.Sub64(rem[1], d[1], b)
			rem[2], b = bits.Sub64(rem[2], d[2], b)
			rem[3], b = bits.Sub64(rem[3], d[3], b)
			rem[4] -= b
			q[bit/64] |= 1 << (uint(bit) % 64)
		}
	}
	return q, Int{rem[0], rem[1], rem[2], rem[3]}
}

// Div returns x / y (truncated), or ErrDivideByZero. Single-limb pairs
// divide with one hardware instruction; a single-limb divisor under a
// wide numerator takes a limb-by-scalar pass.
func (x Int) Div(y Int) (Int, error) {
	if y.IsZero() {
		return Int{}, ErrDivideByZero
	}
	if x.Lt(y) {
		return Int{}, nil
	}
	if y.IsUint64() {
		countHit()
		if x.IsUint64() {
			return Int{x[0] / y[0]}, nil
		}
		q, _ := div5by1([5]uint64{x[0], x[1], x[2], x[3]}, y[0])
		return Int{q[0], q[1], q[2], q[3]}, nil
	}
	countFall()
	q, _ := divmod([8]uint64{x[0], x[1], x[2], x[3]}, y)
	return Int{q[0], q[1], q[2], q[3]}, nil
}

// MustDiv returns x / y and panics on division by zero.
func (x Int) MustDiv(y Int) Int {
	z, err := x.Div(y)
	if err != nil {
		panic(err)
	}
	return z
}

// Mod returns x mod y, or ErrDivideByZero.
func (x Int) Mod(y Int) (Int, error) {
	if y.IsZero() {
		return Int{}, ErrDivideByZero
	}
	if x.Lt(y) {
		return x, nil
	}
	if y.IsUint64() {
		countHit()
		_, rem := div5by1([5]uint64{x[0], x[1], x[2], x[3]}, y[0])
		return Int{rem}, nil
	}
	countFall()
	_, r := divmod([8]uint64{x[0], x[1], x[2], x[3]}, y)
	return r, nil
}

// DivUint64 returns x / v, or ErrDivideByZero.
func (x Int) DivUint64(v uint64) (Int, error) {
	return x.Div(FromUint64(v))
}

// MulDiv returns floor(x * y / den) computed with a 512-bit intermediate
// product, so x*y may exceed 256 bits as long as the final quotient fits.
// It returns ErrDivideByZero when den is zero and ErrOverflow when the
// quotient does not fit in 256 bits.
func (x Int) MulDiv(y, den Int) (Int, error) {
	if den.IsZero() {
		return Int{}, ErrDivideByZero
	}
	// Fast path: a single-limb divisor with at least one single-limb
	// factor — the tolerance/basis-point shape `amount * bps / 10_000`
	// the simplify and pattern layers lean on. The product fits five
	// limbs and divides limb-by-scalar.
	if den.IsUint64() && (x.IsUint64() || y.IsUint64()) {
		countHit()
		var p [5]uint64
		if y.IsUint64() {
			p = mulBy64(x, y[0])
		} else {
			p = mulBy64(y, x[0])
		}
		q, _ := div5by1(p, den[0])
		if q[4] != 0 {
			return Int{}, fmt.Errorf("%w: %s * %s / %s", ErrOverflow, x, y, den)
		}
		return Int{q[0], q[1], q[2], q[3]}, nil
	}
	countFall()
	p := mulFull(x, y)
	q, _ := divmod(p, den)
	if q[4]|q[5]|q[6]|q[7] != 0 {
		return Int{}, fmt.Errorf("%w: %s * %s / %s", ErrOverflow, x, y, den)
	}
	return Int{q[0], q[1], q[2], q[3]}, nil
}

// MustMulDiv returns floor(x*y/den) and panics on error.
func (x Int) MustMulDiv(y, den Int) Int {
	z, err := x.MulDiv(y, den)
	if err != nil {
		panic(err)
	}
	return z
}

// WithinBps reports |x-y| <= max(x,y)*bps/10^4: x and y agree to within
// bps basis points of the larger one. The bound is computed over a
// 512-bit intermediate, so for bps <= 10^4 amounts near Max do not
// overflow.
func WithinBps(x, y Int, bps uint64) bool {
	hi := x
	if y.Gt(x) {
		hi = y
	}
	bound := hi.MustMulDiv(FromUint64(bps), FromUint64(10_000))
	return x.AbsDiff(y).Lte(bound)
}

// Sqrt returns the integer square root of x (the largest s with s*s <= x),
// using Newton iteration seeded from the bit length.
func (x Int) Sqrt() Int {
	if x.IsZero() {
		return Int{}
	}
	if x.IsUint64() {
		return FromUint64(sqrt64(x[0]))
	}
	// Initial guess: 2^ceil(bitlen/2) >= sqrt(x).
	z := One().Lsh(uint((x.BitLen() + 1) / 2))
	for {
		// y = (z + x/z) / 2
		y := z.MustAdd(x.MustDiv(z)).Rsh(1)
		if y.Gte(z) {
			return z
		}
		z = y
	}
}

func sqrt64(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	s := uint64(1) << uint((bits.Len64(v)+1)/2)
	for {
		t := (s + v/s) / 2
		if t >= s {
			return s
		}
		s = t
	}
}

// Lsh returns x << n.
func (x Int) Lsh(n uint) Int {
	if n >= 256 {
		return Int{}
	}
	limb, off := n/64, n%64
	var z Int
	for i := 3; i >= int(limb); i-- {
		z[i] = x[i-int(limb)] << off
		if off > 0 && i-int(limb)-1 >= 0 {
			z[i] |= x[i-int(limb)-1] >> (64 - off)
		}
	}
	return z
}

// Rsh returns x >> n.
func (x Int) Rsh(n uint) Int {
	if n >= 256 {
		return Int{}
	}
	limb, off := n/64, n%64
	var z Int
	for i := 0; i+int(limb) <= 3; i++ {
		z[i] = x[i+int(limb)] >> off
		if off > 0 && i+int(limb)+1 <= 3 {
			z[i] |= x[i+int(limb)+1] << (64 - off)
		}
	}
	return z
}

// maxDecimalDigits is the decimal width of 2^256-1 (78 digits), the
// stack-buffer size the append renderers use.
const maxDecimalDigits = 78

// AppendDecimal appends the decimal rendering of x to dst and returns
// the extended slice. It allocates only if dst needs to grow, which is
// what lets the report builder render amounts into a reused buffer.
func (x Int) AppendDecimal(dst []byte) []byte {
	if x.IsUint64() {
		return strconv.AppendUint(dst, x[0], 10)
	}
	var buf [maxDecimalDigits]byte
	return append(dst, x.decimalInto(&buf)...)
}

// decimalInto renders x (which must be non-zero) right-aligned into buf
// and returns the occupied tail. Digits are peeled 19 at a time (10^19
// is the largest power of ten that fits a uint64), so a 256-bit value
// costs at most four single-limb divisions per chunk.
func (x Int) decimalInto(buf *[maxDecimalDigits]byte) []byte {
	const chunk = uint64(1e19)
	pos := len(buf)
	v := [5]uint64{x[0], x[1], x[2], x[3]}
	for {
		q, r := div5by1(v, chunk)
		if q[0]|q[1]|q[2]|q[3]|q[4] == 0 {
			// Most significant chunk: no zero padding.
			for r > 0 {
				pos--
				buf[pos] = byte('0' + r%10)
				r /= 10
			}
			return buf[pos:]
		}
		for j := 0; j < 19; j++ {
			pos--
			buf[pos] = byte('0' + r%10)
			r /= 10
		}
		v = q
	}
}

// String renders x in decimal.
func (x Int) String() string {
	if x.IsUint64() {
		return strconv.FormatUint(x[0], 10)
	}
	var buf [maxDecimalDigits]byte
	return string(x.decimalInto(&buf))
}

// Format implements fmt.Formatter for %v, %s and %d.
func (x Int) Format(s fmt.State, verb rune) {
	switch verb {
	case 'v', 's', 'd':
		fmt.Fprint(s, x.String())
	case 'x':
		fmt.Fprintf(s, "%016x%016x%016x%016x", x[3], x[2], x[1], x[0])
	default:
		fmt.Fprintf(s, "%%!%c(uint256.Int=%s)", verb, x.String())
	}
}

// FromDecimal parses a base-10 unsigned integer literal. Underscores are
// permitted as digit separators ("1_000_000").
func FromDecimal(s string) (Int, error) {
	if s == "" {
		return Int{}, fmt.Errorf("%w: empty string", ErrSyntax)
	}
	var v Int
	seen := false
	for _, r := range s {
		if r == '_' {
			continue
		}
		if r < '0' || r > '9' {
			return Int{}, fmt.Errorf("%w: %q", ErrSyntax, s)
		}
		seen = true
		var err error
		v, err = v.MulUint64(10)
		if err != nil {
			return Int{}, fmt.Errorf("parsing %q: %w", s, ErrOverflow)
		}
		v, err = v.Add(FromUint64(uint64(r - '0')))
		if err != nil {
			return Int{}, fmt.Errorf("parsing %q: %w", s, ErrOverflow)
		}
	}
	if !seen {
		return Int{}, fmt.Errorf("%w: %q", ErrSyntax, s)
	}
	return v, nil
}

// MustFromDecimal parses a base-10 literal and panics on error. Intended
// for constants in tests and scenario definitions.
func MustFromDecimal(s string) Int {
	v, err := FromDecimal(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Exp10 returns 10^n, or ErrOverflow for n > 77.
func Exp10(n uint) (Int, error) {
	v := One()
	for i := uint(0); i < n; i++ {
		var err error
		v, err = v.MulUint64(10)
		if err != nil {
			return Int{}, fmt.Errorf("10^%d: %w", n, ErrOverflow)
		}
	}
	return v, nil
}

// MustExp10 returns 10^n and panics if it overflows.
func MustExp10(n uint) Int {
	v, err := Exp10(n)
	if err != nil {
		panic(err)
	}
	return v
}

// FromUnits parses a human-readable decimal quantity such as "1.5" into
// base units with the given number of decimals: FromUnits("1.5", 18)
// returns 1500000000000000000. Fractional digits beyond the token's
// decimals are rejected rather than silently truncated.
func FromUnits(s string, decimals uint) (Int, error) {
	whole, frac := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		whole, frac = s[:i], s[i+1:]
	}
	if uint(len(frac)) > decimals {
		return Int{}, fmt.Errorf("%w: %q has more than %d fractional digits", ErrSyntax, s, decimals)
	}
	if whole == "" {
		whole = "0"
	}
	w, err := FromDecimal(whole)
	if err != nil {
		return Int{}, err
	}
	scale := MustExp10(decimals)
	v, err := w.Mul(scale)
	if err != nil {
		return Int{}, fmt.Errorf("parsing %q: %w", s, err)
	}
	if frac != "" {
		f, err := FromDecimal(frac)
		if err != nil {
			return Int{}, err
		}
		f = f.MustMul(MustExp10(decimals - uint(len(frac))))
		v, err = v.Add(f)
		if err != nil {
			return Int{}, fmt.Errorf("parsing %q: %w", s, err)
		}
	}
	return v, nil
}

// MustFromUnits is FromUnits, panicking on error.
func MustFromUnits(s string, decimals uint) Int {
	v, err := FromUnits(s, decimals)
	if err != nil {
		panic(err)
	}
	return v
}

// AppendUnits appends the human-unit rendering of x (see ToUnits) to
// dst and returns the extended slice, allocating only if dst grows.
func (x Int) AppendUnits(dst []byte, decimals uint) []byte {
	if decimals == 0 {
		return x.AppendDecimal(dst)
	}
	scale := MustExp10(decimals)
	whole := x.MustDiv(scale)
	//lint:allow errflow Mod only fails on a zero modulus and MustExp10 never returns zero
	frac, _ := x.Mod(scale)
	dst = whole.AppendDecimal(dst)
	if frac.IsZero() {
		return dst
	}
	dst = append(dst, '.')
	// Fractional part: render frac into a stack buffer, left-pad with
	// zeros to the token's decimals, trim trailing zeros. frac is
	// non-zero here so the trimmed tail is never empty.
	var buf [maxDecimalDigits]byte
	var fb []byte
	if frac.IsUint64() {
		fb = strconv.AppendUint(buf[:0], frac[0], 10)
	} else {
		fb = frac.decimalInto(&buf)
	}
	for pad := int(decimals) - len(fb); pad > 0; pad-- {
		dst = append(dst, '0')
	}
	end := len(fb)
	for fb[end-1] == '0' {
		end--
	}
	return append(dst, fb[:end]...)
}

// ToUnits renders x in human units with the given decimals, trimming
// trailing fractional zeros: 1500000000000000000 with 18 decimals renders
// as "1.5".
func (x Int) ToUnits(decimals uint) string {
	return string(x.AppendUnits(nil, decimals))
}

// Float64 returns a float64 approximation of x. It is used only for
// reporting (USD aggregation, volatility percentages), never for asset
// accounting.
func (x Int) Float64() float64 {
	f := 0.0
	for i := 3; i >= 0; i-- {
		f = f*18446744073709551616.0 + float64(x[i])
	}
	return f
}

// Rat returns the float64 ratio x/y for reporting. It returns 0 when y is
// zero.
func (x Int) Rat(y Int) float64 {
	if y.IsZero() {
		return 0
	}
	// Scale both down so the conversion stays in float range.
	xf, yf := x.Float64(), y.Float64()
	if yf == 0 {
		return 0
	}
	return xf / yf
}

// CmpProducts compares a*b against c*d using full 512-bit products,
// enabling exact exchange-rate comparisons (a/b vs c/d via cross
// multiplication) without overflow or float rounding.
func CmpProducts(a, b, c, d Int) int {
	// Fast path: four single-limb operands — both products fit 128 bits,
	// so two hardware multiplies and a hi/lo compare settle it.
	if isUint64Pair(a, b) && isUint64Pair(c, d) {
		countHit()
		ph, pl := bits.Mul64(a[0], b[0])
		qh, ql := bits.Mul64(c[0], d[0])
		switch {
		case ph < qh:
			return -1
		case ph > qh:
			return 1
		case pl < ql:
			return -1
		case pl > ql:
			return 1
		}
		return 0
	}
	countFall()
	p := mulFull(a, b)
	q := mulFull(c, d)
	for i := 7; i >= 0; i-- {
		switch {
		case p[i] < q[i]:
			return -1
		case p[i] > q[i]:
			return 1
		}
	}
	return 0
}

// MarshalJSON renders the value as a decimal JSON string (amounts exceed
// float64/JSON-number precision).
func (x Int) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, maxDecimalDigits+2)
	b = append(b, '"')
	b = x.AppendDecimal(b)
	return append(b, '"'), nil
}

// UnmarshalJSON parses a decimal JSON string or bare number.
func (x *Int) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	v, err := FromDecimal(s)
	if err != nil {
		return err
	}
	*x = v
	return nil
}
