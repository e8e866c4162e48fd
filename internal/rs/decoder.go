package rs

// Result reports the outcome of a successful decode.
type Result struct {
	// Corrected is the repaired codeword. The allocating entry points
	// (DecodeBounded, DecodeErrorsErasures) return a fresh slice, even when no correction was needed; the Scratch entry
	// points return a slice aliasing the workspace.
	Corrected []byte
	// ErrorPositions lists the codeword positions (0-based, data-first) at
	// which symbols were corrected, in increasing order.
	ErrorPositions []int
}

// detach copies the result's slices out of a Scratch so it survives the
// scratch's reuse.
func (r Result) detach() Result {
	if r.Corrected != nil {
		r.Corrected = append([]byte(nil), r.Corrected...)
	}
	if len(r.ErrorPositions) > 0 {
		r.ErrorPositions = append([]int(nil), r.ErrorPositions...)
	} else {
		r.ErrorPositions = nil
	}
	return r
}

// DecodeBounded corrects at most maxErrors symbol errors (which must not
// exceed MaxCorrectable). Memory controllers use the bound to implement
// policy: commercial SCCDCD decodes its 4-check-symbol code with a bound of
// one error so that the residual check capacity guarantees detection of a
// second bad symbol.
//
// It is a thin wrapper over DecodeScratch with a pooled workspace; callers
// on the hot path should hold their own Scratch and call DecodeScratch to
// avoid the result copy.
func (c *Code) DecodeBounded(cw []byte, maxErrors int) (Result, error) {
	s := c.scratch.Get().(*Scratch)
	res, err := c.DecodeScratch(cw, maxErrors, s)
	res = res.detach()
	c.scratch.Put(s)
	return res, err
}

// DecodeErrorsErasures corrects the erased positions and additionally up to
// maxErrors unknown-position errors, subject to the distance bound
// 2*errors + erasures <= N-K. The input is not modified.
//
// It is a thin wrapper over DecodeErrorsErasuresScratch with a pooled
// workspace, exactly as DecodeBounded wraps DecodeScratch.
func (c *Code) DecodeErrorsErasures(cw []byte, erasures []int, maxErrors int) (Result, error) {
	s := c.scratch.Get().(*Scratch)
	res, err := c.DecodeErrorsErasuresScratch(cw, erasures, maxErrors, s)
	res = res.detach()
	c.scratch.Put(s)
	return res, err
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
