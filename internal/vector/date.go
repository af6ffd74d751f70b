package vector

import (
	"fmt"
	"time"
)

// DaysFromDate converts a calendar date to days since 1970-01-01, the
// physical representation of the Date type.
func DaysFromDate(year, month, day int) int64 {
	t := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	return t.Unix() / 86400
}

// ParseDate converts "YYYY-MM-DD" to days since the epoch.
func ParseDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("bad date literal %q: %w", s, err)
	}
	return t.Unix() / 86400, nil
}

// MustParseDate is ParseDate that panics on malformed input. It is intended
// for literals in query builders and tests.
func MustParseDate(s string) int64 {
	d, err := ParseDate(s)
	if err != nil {
		panic("vector: " + err.Error())
	}
	return d
}

// DateString renders days since the epoch as "YYYY-MM-DD" (see AppendDate).
func DateString(days int64) string {
	var buf [10]byte
	return string(AppendDate(buf[:0], days))
}

// AppendDate appends days since the epoch as "YYYY-MM-DD" to dst, the text
// time.Format("2006-01-02") gives. Years 0000-9999 are computed with
// integer arithmetic (Hinnant's civil-from-days over 400-year eras, floor
// division for days before the era base) and allocate nothing; other
// years fall back to time.
func AppendDate(dst []byte, days int64) []byte {
	z := days + 719468 // days since 0000-03-01
	era := z
	if era < 0 {
		era -= 146096
	}
	era /= 146097
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // [0, 365], from March 1
	mp := (5*doy + 2) / 153                                // [0, 11], March = 0
	d := doy - (153*mp+2)/5 + 1
	m := mp + 3
	y := yoe + era*400
	if m > 12 {
		m -= 12
		y++
	}
	if y < 0 || y > 9999 {
		return time.Unix(days*86400, 0).UTC().AppendFormat(dst, "2006-01-02")
	}
	return append(dst,
		byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+m/10), byte('0'+m%10), '-',
		byte('0'+d/10), byte('0'+d%10))
}

// YearOf returns the calendar year of a Date value.
func YearOf(days int64) int64 {
	return int64(time.Unix(days*86400, 0).UTC().Year())
}

// MonthOf returns the calendar month (1-12) of a Date value.
func MonthOf(days int64) int64 {
	return int64(time.Unix(days*86400, 0).UTC().Month())
}
