package balance

import (
	"fmt"
	"strconv"
	"strings"
)

// Encode serializes a balancer's identity and parameters into a compact
// string ("permcell(h=0.1,pick=0)", "sfc(h=0,moves=2)", ...), the form
// recorded in checkpoint Meta and run headers. A nil balancer encodes as
// "none". Decode inverts it.
func Encode(b Balancer) string {
	switch v := b.(type) {
	case nil:
		return "none"
	case PermanentCell:
		return fmt.Sprintf("permcell(h=%s,pick=%d)", formatF(v.Hysteresis), v.Pick)
	case SFC:
		return fmt.Sprintf("sfc(h=%s,moves=%d)", formatF(v.Hysteresis), v.MaxMoves())
	case Diffusive:
		return fmt.Sprintf("diffusive(h=%s,moves=%d)", formatF(v.Hysteresis), v.MaxMoves())
	default:
		return b.Name()
	}
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Decode parses an Encode string or a bare balancer name with default
// parameters. "none" and "" return a nil balancer. Unknown names and
// malformed parameter lists are errors, so a foreign checkpoint or a
// mistyped CLI flag fails loudly.
func Decode(s string) (Balancer, error) {
	name, params := strings.TrimSpace(s), ""
	if i := strings.IndexByte(name, '('); i >= 0 {
		if !strings.HasSuffix(name, ")") {
			return nil, fmt.Errorf("balance: malformed balancer spec %q", s)
		}
		name, params = name[:i], name[i+1:len(name)-1]
	}
	kv, err := parseParams(s, params)
	if err != nil {
		return nil, err
	}
	switch name {
	case "", "none":
		return nil, nil
	case "permcell":
		if err := checkKeys(s, kv, "h", "pick"); err != nil {
			return nil, err
		}
		b := PermanentCell{}
		if v, ok := kv["h"]; ok {
			if b.Hysteresis, err = strconv.ParseFloat(v, 64); err != nil {
				return nil, fmt.Errorf("balance: %q: bad hysteresis: %w", s, err)
			}
		}
		if v, ok := kv["pick"]; ok {
			p, err := parsePick(v)
			if err != nil {
				return nil, fmt.Errorf("balance: %q: %w", s, err)
			}
			b.Pick = p
		}
		return b, nil
	case "sfc":
		if err := checkKeys(s, kv, "h", "moves"); err != nil {
			return nil, err
		}
		b := SFC{}
		if err := fillHMoves(s, kv, &b.Hysteresis, &b.Moves); err != nil {
			return nil, err
		}
		return b, nil
	case "diffusive":
		if err := checkKeys(s, kv, "h", "moves"); err != nil {
			return nil, err
		}
		b := Diffusive{}
		if err := fillHMoves(s, kv, &b.Hysteresis, &b.Moves); err != nil {
			return nil, err
		}
		return b, nil
	default:
		return nil, fmt.Errorf("balance: unknown balancer %q (want permcell, sfc, diffusive or none)", name)
	}
}

func parseParams(spec, params string) (map[string]string, error) {
	kv := make(map[string]string)
	if params == "" {
		return kv, nil
	}
	for _, part := range strings.Split(params, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("balance: malformed parameter %q in %q", part, spec)
		}
		kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return kv, nil
}

// checkKeys rejects parameter names the balancer does not define, so a
// typo ("sfc(move=2)") fails loudly instead of silently running defaults.
func checkKeys(spec string, kv map[string]string, allowed ...string) error {
	for k := range kv {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("balance: %q: unknown parameter %q (allowed: %s)",
				spec, k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

func fillHMoves(spec string, kv map[string]string, h *float64, moves *int) error {
	var err error
	if v, ok := kv["h"]; ok {
		if *h, err = strconv.ParseFloat(v, 64); err != nil {
			return fmt.Errorf("balance: %q: bad hysteresis: %w", spec, err)
		}
	}
	if v, ok := kv["moves"]; ok {
		if *moves, err = strconv.Atoi(v); err != nil {
			return fmt.Errorf("balance: %q: bad moves: %w", spec, err)
		}
	}
	return nil
}

func parsePick(v string) (Pick, error) {
	switch strings.ToLower(v) {
	case "most", "mostloaded":
		return PickMostLoaded, nil
	case "least", "leastloaded":
		return PickLeastLoaded, nil
	case "lowest", "lowestindex":
		return PickLowestIndex, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad pick strategy %q", v)
	}
	return Pick(n), nil
}
