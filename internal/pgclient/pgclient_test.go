package pgclient

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// dataRow encodes a DataRow body: a column count, then per column a 32-bit
// length (-1 for NULL) and that many bytes.
func dataRow(cols ...any) []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(len(cols)))
	for _, c := range cols {
		switch v := c.(type) {
		case nil:
			b = binary.BigEndian.AppendUint32(b, uint32(0xFFFFFFFF))
		case string:
			b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
			b = append(b, v...)
		}
	}
	return b
}

func TestParseDataRow(t *testing.T) {
	negLen := binary.BigEndian.AppendUint16(nil, 1)
	negLen = binary.BigEndian.AppendUint32(negLen, uint32(0xFFFFFFFE)) // -2
	for _, tc := range []struct {
		name    string
		msg     []byte
		want    []string
		wantErr bool
	}{
		{"values", dataRow("42", "abc"), []string{"42", "abc"}, false},
		{"null is length -1", dataRow("x", nil, "y"), []string{"x", "", "y"}, false},
		{"zero-length value", dataRow(""), []string{""}, false},
		{"no columns", dataRow(), []string{}, false},
		{"short header", []byte{0}, nil, true},
		{"truncated length", dataRow("ab")[:4], nil, true},
		{"truncated value", dataRow("abcdef")[:8], nil, true},
		{"negative length other than -1", negLen, nil, true},
	} {
		got, err := parseDataRow(tc.msg)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
			continue
		}
		if !tc.wantErr && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// rowDescription encodes a RowDescription body with 18 bytes of per-column
// metadata (table OID, attnum, type OID, length, modifier, format).
func rowDescription(names ...string) []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(len(names)))
	for _, n := range names {
		b = append(append(b, n...), 0)
		b = append(b, make([]byte, 18)...)
	}
	return b
}

func TestParseRowDescription(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  []byte
		want []string
	}{
		{"zero columns", rowDescription(), []string{}},
		{"one column", rowDescription("n"), []string{"n"}},
		{"many columns", rowDescription("a", "bb", "ccc"), []string{"a", "bb", "ccc"}},
		{"short header", []byte{0}, nil},
		// Metadata cut short after a name: the name counts, parsing stops.
		{"truncated metadata", rowDescription("a", "b")[:2+2+10], []string{"a"}},
	} {
		if got := parseRowDescription(tc.msg); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestParseError(t *testing.T) {
	fields := []byte("SERROR\x00C42601\x00Msyntax error\x00Dignored detail\x00\x00")
	for _, tc := range []struct {
		name string
		msg  []byte
		want ServerError
	}{
		{"S, C and M fields", fields, ServerError{Severity: "ERROR", Code: "42601", Message: "syntax error"}},
		{"missing terminator", []byte("SFATAL\x00C57P01\x00Mbye"), ServerError{Severity: "FATAL", Code: "57P01", Message: "bye"}},
		{"empty", []byte{0}, ServerError{}},
	} {
		if got := parseError(tc.msg); *got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, *got, tc.want)
		}
	}
}
