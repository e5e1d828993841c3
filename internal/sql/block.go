package sql

import (
	"fmt"
	"strconv"
	"strings"

	"mosaic/internal/value"
)

// AppendBlock appends to dst a COPY block that loads n rows into rel: the
// header COPY rel (cols…) FROM STDIN;, then row(i) for each i < n on a line
// of its own, each value as value.AppendSQL spells it and a tab between
// two, then the line \.. It is the one writer of the block format; a
// block it writes parses back to the values it was given.
func AppendBlock(dst []byte, rel string, cols []string, n int, row func(i int) []value.Value) []byte {
	dst = append(dst, "COPY "...)
	dst = append(dst, rel...)
	dst = append(dst, " ("...)
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, c...)
	}
	dst = append(dst, ") FROM STDIN;\n"...)
	for i := 0; i < n; i++ {
		for j, v := range row(i) {
			if j > 0 {
				dst = append(dst, '\t')
			}
			dst = value.AppendSQL(dst, v)
		}
		dst = append(dst, '\n')
	}
	return append(dst, blockEnd+"\n"...)
}

// scanBlock scans the rows of a block token into values, len(cols) to a
// row, each field the value its literal has in an INSERT. No field becomes
// a syntax tree: a dedicated scanner reads it straight into a value.Value,
// and a TEXT without a quote inside is a slice of the script. The first row
// that does not scan ends the block and is its Err.
func scanBlock(t token, cols []string) *Block {
	body, width := t.text, len(cols)
	b := &Block{Columns: cols, Vals: make([]value.Value, 0, strings.Count(body, "\n")*width)}
	for i := 0; i < len(body); {
		row, n := i, len(b.Vals)
		var err error
		if i, err = b.scanRow(body, i, width); err != nil {
			b.Vals = b.Vals[:n]
			b.Err = fmt.Errorf("sql: line %d: %v", t.line+strings.Count(body[:row], "\n"), err)
			break
		}
	}
	return b
}

// scanRow appends to b.Vals the fields of the row that starts at body[i]
// and returns where the next row starts.
func (b *Block) scanRow(body string, i, width int) (int, error) {
	for f := 1; ; f++ {
		v, j, err := scanField(body, i)
		if err != nil {
			return 0, err
		}
		b.Vals = append(b.Vals, v)
		if j < len(body) && body[j] == '\t' {
			i = j + 1
			continue
		}
		if j < len(body) && body[j] != '\n' {
			return 0, fmt.Errorf("field %d: %q is not one literal", f, fieldText(body, i))
		}
		if f != width {
			return 0, fmt.Errorf("%d fields for %d columns", f, width)
		}
		return j + 1, nil
	}
}

// scanField scans the literal at s[i] and returns its value and where it
// ends: a number, a quoted TEXT, NULL, TRUE, FALSE or FLOAT '<float>',
// keywords in any case, each with the value it has in an INSERT.
func scanField(s string, i int) (value.Value, int, error) {
	if i < len(s) {
		switch c := s[i]; {
		case c == '\'':
			return scanText(s, i)
		case c == '-' || c == '.' || isDigit(c):
			// An INSERT negates the literal after the '-', so an INT
			// magnitude past MaxInt64 is a FLOAT before it is negated.
			j := i
			if c == '-' {
				j++
			}
			end := numberEnd(s, j)
			v, err := numberValue(s[j:end])
			if err != nil {
				break
			}
			if c == '-' {
				if v.Kind() == value.KindInt {
					v = value.Int(-v.AsInt())
				} else {
					v = value.Float(-v.AsFloat())
				}
			}
			return v, end, nil
		}
		j := i
		for j < len(s) && (s[j]|0x20 >= 'a' && s[j]|0x20 <= 'z') {
			j++
		}
		switch w := s[i:j]; {
		case strings.EqualFold(w, "NULL"):
			return value.Null(), j, nil
		case strings.EqualFold(w, "TRUE"):
			return value.Bool(true), j, nil
		case strings.EqualFold(w, "FALSE"):
			return value.Bool(false), j, nil
		case strings.EqualFold(w, "FLOAT"):
			for j < len(s) && s[j] == ' ' {
				j++
			}
			if j < len(s) && s[j] == '\'' {
				v, end, err := scanText(s, j)
				if err != nil {
					return v, end, err
				}
				f, err := strconv.ParseFloat(v.AsText(), 64)
				if err != nil {
					return value.Null(), 0, fmt.Errorf("invalid FLOAT literal %s", v.SQL())
				}
				return value.Float(f), end, nil
			}
		}
	}
	return value.Null(), 0, fmt.Errorf("invalid field %q", fieldText(s, i))
}

// scanText scans the quoted TEXT at s[i], in which a quote is doubled. A
// TEXT without a doubled quote is a slice of s.
func scanText(s string, i int) (value.Value, int, error) {
	var b strings.Builder // the text up to the last doubled quote, if any
	for j := i + 1; ; {
		k := strings.IndexByte(s[j:], '\'')
		if k < 0 {
			return value.Null(), 0, fmt.Errorf("unterminated string %q", fieldText(s, i))
		}
		end := j + k
		if end+1 < len(s) && s[end+1] == '\'' {
			b.WriteString(s[j : end+1])
			j = end + 2
			continue
		}
		if b.Len() == 0 {
			return value.Text(s[j:end]), end + 1, nil
		}
		b.WriteString(s[j:end])
		return value.Text(b.String()), end + 1, nil
	}
}

// fieldText is the field at s[i], up to the next tab or newline, for an
// error message.
func fieldText(s string, i int) string {
	s = s[min(i, len(s)):]
	if j := strings.IndexAny(s, "\t\n"); j >= 0 {
		s = s[:j]
	}
	return s
}

// numberEnd returns where the number that starts at s[i] ends: digits, at
// most one '.', and an exponent after the first character, e or E with an
// optional sign. It is the number token of the lexer.
func numberEnd(s string, i int) int {
	start := i
	seenDot, seenExp := false, false
	for i < len(s) {
		switch c := s[i]; {
		case isDigit(c):
			i++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			i++
		case (c == 'e' || c == 'E') && !seenExp && i > start:
			seenExp = true
			i++
			if i < len(s) && (s[i] == '+' || s[i] == '-') {
				i++
			}
		default:
			return i
		}
	}
	return i
}

// numberValue is the value of a number token: a FLOAT if it has a '.' or an
// exponent, or if it is an INT too large for int64, else an INT.
func numberValue(text string) (value.Value, error) {
	if !strings.ContainsAny(text, ".eE") {
		if i, err := strconv.ParseInt(text, 10, 64); err == nil {
			return value.Int(i), nil
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return value.Null(), fmt.Errorf("invalid number %q", text)
	}
	return value.Float(f), nil
}
