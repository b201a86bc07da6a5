package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

func marshal(t *testing.T, v any) (string, error) {
	t.Helper()
	b, err := json.Marshal(v)
	return string(b), err
}

// TestStringMatchesMarshal covers every single byte, every byte pair
// and the runes encoding/json treats specially.
func TestStringMatchesMarshal(t *testing.T) {
	var inputs []string
	for b := 0; b < 256; b++ {
		inputs = append(inputs, string([]byte{byte(b)}), "a"+string([]byte{byte(b)})+"z")
		for c := 0; c < 256; c += 7 {
			inputs = append(inputs, string([]byte{byte(b), byte(c)}))
		}
	}
	inputs = append(inputs, "", "COSI 11A", "\xe2\x80\xa8", "\xe2\x80\xa9", "x\xe2\x80\xa8y\xe2\x80\xa9z", "\xe2\x80",
		"\xed\xa0\x80", "\xf4\x90\x80\x80", "\xef\xbf\xbd", "\xf0\x9f\x98\x80", "<script>&amp;</script>")
	for _, s := range inputs {
		want, _ := marshal(t, s)
		if got := string(String(nil, s)); got != want {
			t.Errorf("String(%q) = %s, encoding/json %s", s, got, want)
		}
	}
}

func TestFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 1e-6, 9.999999e-7, 1e-7, 1.5e-300,
		1e20, 1e21, 9.99e20, -1e21, 123456789012345678, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		want, wantErr := marshal(t, f)
		got, err := Float([]byte("x"), f)
		if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("Float(%v): error %v, encoding/json %v", f, err, wantErr)
			continue
		}
		if err != nil {
			if string(got) != "x" {
				t.Errorf("Float(%v) appended %q on error", f, got)
			}
			continue
		}
		if string(got[1:]) != want {
			t.Errorf("Float(%v) = %s, encoding/json %s", f, got[1:], want)
		}
	}
}

func TestStringsNullAndEmpty(t *testing.T) {
	for _, ss := range [][]string{nil, {}, {"a"}, {"a", "<b>"}} {
		want, _ := marshal(t, ss)
		if got := string(Strings(nil, ss)); got != want {
			t.Errorf("Strings(%#v) = %s, encoding/json %s", ss, got, want)
		}
	}
}
