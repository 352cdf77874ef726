package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Float is a float64 whose JSON encoding survives IEEE specials: ±Inf and
// NaN encode as the strings "+Inf", "-Inf" and "NaN" instead of failing
// encoding/json. The telemetry exports need it for values that are
// legitimately non-finite, such as the +Inf cost of a policy a fault has
// priced out.
type Float float64

// MarshalJSON encodes ±Inf/NaN as strings.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON inverts MarshalJSON.
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf":
			*f = Float(math.Inf(1))
		case "-Inf":
			*f = Float(math.Inf(-1))
		case "NaN":
			*f = Float(math.NaN())
		default:
			return fmt.Errorf("stats: bad float string %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// FormatFloat renders v in its shortest round-trip form, spelling the IEEE
// specials the way the Prometheus exposition does ("+Inf", "-Inf", "NaN").
// The metrics exposition and the TSV goldens share it, so their diffs read
// alike.
func FormatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
