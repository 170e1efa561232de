// Package flashloan identifies flash loan transactions from the three
// providers of paper Table II:
//
//	Uniswap:  swap call followed by a uniswapV2Call callback
//	AAVE:     flashLoan call emitting a FlashLoan event
//	dYdX:     Operate composing Withdraw/Call/Deposit, emitting
//	          LogOperation, LogWithdraw, LogCall, LogDeposit
//
// Identification is the entry gate of the pipeline: only transactions with
// at least one identified flash loan proceed to transfer extraction.
package flashloan

import (
	"fmt"

	"leishen/internal/evm"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

// Provider enumerates flash loan sources.
type Provider int

// Providers.
const (
	// ProviderUniswap is a Uniswap V2-style flash swap.
	ProviderUniswap Provider = iota + 1
	// ProviderAave is an AAVE-style flashLoan call.
	ProviderAave
	// ProviderDydx is a dYdX solo-margin operate composition.
	ProviderDydx
)

// String names the provider.
func (p Provider) String() string {
	switch p {
	case ProviderUniswap:
		return "Uniswap"
	case ProviderAave:
		return "AAVE"
	case ProviderDydx:
		return "dYdX"
	default:
		return fmt.Sprintf("Provider(%d)", int(p))
	}
}

// Loan describes one identified flash loan inside a transaction.
type Loan struct {
	// Provider is the lending venue.
	Provider Provider
	// Lender is the providing contract (pair / pool / solo margin).
	Lender types.Address
	// Borrower is the receiving contract (the flash loan borrower whose
	// trades the attack patterns are matched against).
	Borrower types.Address
	// Token is the borrowed asset's contract address.
	Token types.Address
	// Amount is the borrowed quantity in base units.
	Amount uint256.Int
	// Seq is the happened-before position of the lending transfer.
	Seq uint64
}

// Identify scans a receipt for flash loans from all three providers. A
// transaction may contain several (seven of the 44 studied attacks
// borrowed from more than one provider at once). It is IdentifyScratch
// over a fresh Scratch, so the returned slice is the caller's own.
func Identify(r *evm.Receipt) []Loan {
	var s Scratch
	return IdentifyScratch(r, &s)
}

// markers reports, without allocating, which providers' entry markers
// appear in the receipt: a uniswapV2Call callback frame, a FlashLoan
// event, or a LogOperation event.
func markers(r *evm.Receipt) (uniswap, aave, dydx bool) {
	for i := range r.InternalTxs {
		if r.InternalTxs[i].Method == "uniswapV2Call" {
			uniswap = true
			break
		}
	}
	for i := range r.Logs {
		switch r.Logs[i].Event {
		case "FlashLoan":
			aave = true
		case "LogOperation":
			dydx = true
		}
		if aave && dydx {
			break
		}
	}
	return uniswap, aave, dydx
}

// IsFlashLoanTx reports whether the transaction contains any flash loan.
func IsFlashLoanTx(r *evm.Receipt) bool { return len(Identify(r)) > 0 }

// identifyUniswapInto finds swap frames whose recipient is called back
// via uniswapV2Call within the same pair call, and recovers the
// borrowed amount from the Transfer logs emitted between the two
// frames, appending the loans to dst.
func identifyUniswapInto(loans []Loan, r *evm.Receipt) []Loan {
	for _, it := range r.InternalTxs {
		if it.Method != "uniswapV2Call" {
			continue
		}
		// The caller of uniswapV2Call is the pair; the callee is the
		// borrower. Find the swap frame on the same pair that precedes
		// this callback.
		pair, borrower := it.From, it.To
		var swapSeq uint64
		var found bool
		for _, s := range r.InternalTxs {
			if s.Method == "swap" && s.To == pair && s.Seq < it.Seq {
				swapSeq, found = s.Seq, true
			}
		}
		if !found {
			continue
		}
		// Borrowed assets: Transfer logs from the pair to the borrower
		// between the swap call and the callback.
		for _, lg := range r.Logs {
			if lg.Event != "Transfer" || lg.Seq <= swapSeq || lg.Seq >= it.Seq {
				continue
			}
			if len(lg.Addrs) == 2 && lg.Addrs[0] == pair && lg.Addrs[1] == borrower && len(lg.Amounts) == 1 {
				loans = append(loans, Loan{
					Provider: ProviderUniswap,
					Lender:   pair,
					Borrower: borrower,
					Token:    lg.Address,
					Amount:   lg.Amounts[0],
					Seq:      lg.Seq,
				})
			}
		}
	}
	return loans
}

// identifyAaveInto matches FlashLoan events, appending to dst.
func identifyAaveInto(loans []Loan, r *evm.Receipt) []Loan {
	for _, lg := range r.Logs {
		if lg.Event != "FlashLoan" || len(lg.Addrs) < 2 || len(lg.Amounts) < 1 {
			continue
		}
		loans = append(loans, Loan{
			Provider: ProviderAave,
			Lender:   lg.Address,
			Borrower: lg.Addrs[0],
			Token:    lg.Addrs[1],
			Amount:   lg.Amounts[0],
			Seq:      lg.Seq,
		})
	}
	return loans
}
