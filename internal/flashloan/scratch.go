package flashloan

import (
	"leishen/internal/evm"
	"leishen/internal/types"
)

// Scratch holds the reusable working state of flash loan identification
// so steady-state scanning reuses buffers instead of reallocating per
// transaction. The zero value is ready to use; not safe for concurrent
// use. The slice returned by IdentifyScratch aliases the scratch and is
// only valid until the next call with the same scratch.
type Scratch struct {
	loans  []Loan
	states []dydxState
}

// dydxState tracks one solo-margin contract's pending operation.
// Transactions touch at most a handful of solo-margin contracts, so a
// slice searched linearly beats a map that must be allocated per call.
// withdraw is an index into r.Logs (-1 when unset) rather than a pointer
// so a reused scratch never retains receipt memory across transactions.
type dydxState struct {
	addr     types.Address
	withdraw int
	sawCall  bool
}

// IdentifyScratch scans a receipt for flash loans from all three
// providers, using caller-owned working buffers. The marker pre-scan
// makes the non-flash-loan majority allocation-free: a receipt with no
// provider marker returns nil without touching the scratch, which is
// what keeps corpus scanning cheap.
func IdentifyScratch(r *evm.Receipt, s *Scratch) []Loan {
	if r == nil || !r.Success {
		return nil
	}
	uniswap, aave, dydx := markers(r)
	if !uniswap && !aave && !dydx {
		return nil
	}
	s.loans = s.loans[:0]
	if uniswap {
		s.loans = identifyUniswapInto(s.loans, r)
	}
	if aave {
		s.loans = identifyAaveInto(s.loans, r)
	}
	if dydx {
		s.loans = identifyDydxScratch(s.loans, r, s)
	}
	return s.loans
}

// identifyDydxScratch matches the LogOperation / LogWithdraw / LogCall /
// LogDeposit sequence emitted by the same solo-margin contract,
// appending one loan per completed sequence in LogDeposit order. A
// LogOperation opens (or reopens) the contract's sequence, a
// LogWithdraw records the borrowed leg, and a LogDeposit after a
// LogCall closes it; out-of-order or incomplete sequences yield nothing.
func identifyDydxScratch(loans []Loan, r *evm.Receipt, s *Scratch) []Loan {
	s.states = s.states[:0]
	find := func(addr types.Address) *dydxState {
		for i := range s.states {
			if s.states[i].addr == addr {
				return &s.states[i]
			}
		}
		return nil
	}
	for i := range r.Logs {
		lg := &r.Logs[i]
		switch lg.Event {
		case "LogOperation":
			if p := find(lg.Address); p != nil {
				p.withdraw = -1
				p.sawCall = false
			} else {
				s.states = append(s.states, dydxState{addr: lg.Address, withdraw: -1})
			}
		case "LogWithdraw":
			if p := find(lg.Address); p != nil {
				p.withdraw = i
				p.sawCall = false
			}
		case "LogCall":
			if p := find(lg.Address); p != nil && p.withdraw >= 0 {
				p.sawCall = true
			}
		case "LogDeposit":
			p := find(lg.Address)
			if p == nil || p.withdraw < 0 || !p.sawCall {
				continue
			}
			w := &r.Logs[p.withdraw]
			if len(w.Addrs) >= 2 && len(w.Amounts) >= 1 {
				loans = append(loans, Loan{
					Provider: ProviderDydx,
					Lender:   lg.Address,
					Borrower: w.Addrs[0],
					Token:    w.Addrs[1],
					Amount:   w.Amounts[0],
					Seq:      w.Seq,
				})
			}
			p.withdraw = -1
			p.sawCall = false
		}
	}
	return loans
}
