package dist

import "math"

// The erfc algorithm and coefficients below are those of Go's
// math/erf.go (Copyright 2010 The Go Authors, BSD-style license), a
// translation of FreeBSD's s_erf.c, which carries this notice:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================

// This file holds the module's one complementary-error-function core:
// the algorithm of the pure-Go math.Erfc, evaluated once on |y| and
// read off on both sides: erfc(-y) = 2 - erfc(y) comes from the same
// polynomial quotients and exponentials as erfc(y). Every expression
// below is the stdlib's own, in the same association, so each output
// is bit for bit what math.Erfc returns on platforms without an
// assembly Erfc (all but s390x); TestCDFPairBitwise and FuzzCDFPair pin
// that. The core also does the sign swap and the exact 0.5 scaling, so
// CDFPair is a one-line wrapper the compiler inlines: the Clark max in
// internal/stats reaches the core in one call.

// Coefficients of the erfc approximations, copied from math/erf.go.
const (
	erx = 8.45062911510467529297e-01 // 0x3FEB0AC160000000
	// erf in [0, 0.84375]
	pp0 = 1.28379167095512558561e-01  // 0x3FC06EBA8214DB68
	pp1 = -3.25042107247001499370e-01 // 0xBFD4CD7D691CB913
	pp2 = -2.84817495755985104766e-02 // 0xBF9D2A51DBD7194F
	pp3 = -5.77027029648944159157e-03 // 0xBF77A291236668E4
	pp4 = -2.37630166566501626084e-05 // 0xBEF8EAD6120016AC
	qq1 = 3.97917223959155352819e-01  // 0x3FD97779CDDADC09
	qq2 = 6.50222499887672944485e-02  // 0x3FB0A54C5536CEBA
	qq3 = 5.08130628187576562776e-03  // 0x3F74D022C4D36B0F
	qq4 = 1.32494738004321644526e-04  // 0x3F215DC9221C1A10
	qq5 = -3.96022827877536812320e-06 // 0xBED09C4342A26120
	// erf in [0.84375, 1.25]
	pa0 = -2.36211856075265944077e-03 // 0xBF6359B8BEF77538
	pa1 = 4.14856118683748331666e-01  // 0x3FDA8D00AD92B34D
	pa2 = -3.72207876035701323847e-01 // 0xBFD7D240FBB8C3F1
	pa3 = 3.18346619901161753674e-01  // 0x3FD45FCA805120E4
	pa4 = -1.10894694282396677476e-01 // 0xBFBC63983D3E28EC
	pa5 = 3.54783043256182359371e-02  // 0x3FA22A36599795EB
	pa6 = -2.16637559486879084300e-03 // 0xBF61BF380A96073F
	qa1 = 1.06420880400844228286e-01  // 0x3FBB3E6618EEE323
	qa2 = 5.40397917702171048937e-01  // 0x3FE14AF092EB6F33
	qa3 = 7.18286544141962662868e-02  // 0x3FB2635CD99FE9A7
	qa4 = 1.26171219808761642112e-01  // 0x3FC02660E763351F
	qa5 = 1.36370839120290507362e-02  // 0x3F8BEDC26B51DD1C
	qa6 = 1.19844998467991074170e-02  // 0x3F888B545735151D
	// erfc in [1.25, 1/0.35]
	ra0 = -9.86494403484714822705e-03 // 0xBF843412600D6435
	ra1 = -6.93858572707181764372e-01 // 0xBFE63416E4BA7360
	ra2 = -1.05586262253232909814e+01 // 0xC0251E0441B0E726
	ra3 = -6.23753324503260060396e+01 // 0xC04F300AE4CBA38D
	ra4 = -1.62396669462573470355e+02 // 0xC0644CB184282266
	ra5 = -1.84605092906711035994e+02 // 0xC067135CEBCCABB2
	ra6 = -8.12874355063065934246e+01 // 0xC054526557E4D2F2
	ra7 = -9.81432934416914548592e+00 // 0xC023A0EFC69AC25C
	sa1 = 1.96512716674392571292e+01  // 0x4033A6B9BD707687
	sa2 = 1.37657754143519042600e+02  // 0x4061350C526AE721
	sa3 = 4.34565877475229228821e+02  // 0x407B290DD58A1A71
	sa4 = 6.45387271733267880336e+02  // 0x40842B1921EC2868
	sa5 = 4.29008140027567833386e+02  // 0x407AD02157700314
	sa6 = 1.08635005541779435134e+02  // 0x405B28A3EE48AE2C
	sa7 = 6.57024977031928170135e+00  // 0x401A47EF8E484A93
	sa8 = -6.04244152148580987438e-02 // 0xBFAEEFF2EE749A62
	// erfc in [1/0.35, 28]
	rb0 = -9.86494292470009928597e-03 // 0xBF84341239E86F4A
	rb1 = -7.99283237680523006574e-01 // 0xBFE993BA70C285DE
	rb2 = -1.77579549177547519889e+01 // 0xC031C209555F995A
	rb3 = -1.60636384855821916062e+02 // 0xC064145D43C5ED98
	rb4 = -6.37566443368389627722e+02 // 0xC083EC881375F228
	rb5 = -1.02509513161107724954e+03 // 0xC09004616A2E5992
	rb6 = -4.83519191608651397019e+02 // 0xC07E384E9BDC383F
	sb1 = 3.03380607434824582924e+01  // 0x403E568B261D5190
	sb2 = 3.25792512996573918826e+02  // 0x40745CAE221B9F0A
	sb3 = 1.53672958608443695994e+03  // 0x409802EB189D5118
	sb4 = 3.19985821950859553908e+03  // 0x40A8FFB7688C246A
	sb5 = 2.55305040643316442583e+03  // 0x40A3F219CEDF3BE6
	sb6 = 4.74528541206955367215e+02  // 0x407DA874E79FE763
	sb7 = -2.24409524465858183362e+01 // 0xC03670E242712D62
)

// CDFPair returns (Phi(x), Phi(-x)), the standard normal CDF on both
// sides of zero, from one run of the erfc core: bit for bit
// 0.5*math.Erfc(-x/Sqrt2) and 0.5*math.Erfc(x/Sqrt2), at roughly the
// cost of one. Clark's max needs both tightness probabilities, so
// stats.Max2 and Max2StepInto call this once per operand pair. Division
// by Sqrt2 is sign-symmetric in IEEE arithmetic, so one quotient serves
// both sides. The wrapper inlines, so a caller reaches the core in one
// call.
func CDFPair(x float64) (float64, float64) { return cdfPair(x / Sqrt2) }

// cdfPair returns (0.5*erfc(-y), 0.5*erfc(y)) for any y, following
// math.Erfc branch by branch on a = |y|: lo = erfc(a) and hi = erfc(-a)
// are 1 - temp and 1 + temp, 1 - erx - P/Q and 1 + erx + P/Q, r/a and
// 2 - r/a, with the stdlib's exact 2 for hi above 6 and the 0 / 2
// saturation from 28 on. The sign of y then picks which side is which,
// and the halving is exact, as in the stdlib callers' 0.5*math.Erfc.
func cdfPair(y float64) (float64, float64) {
	const tiny = 1.0 / (1 << 56) // 2**-56
	a := math.Abs(y)
	var lo, hi float64
	switch {
	case a < 0.84375:
		temp := a
		if a >= tiny {
			z := a * a
			r := pp0 + z*(pp1+z*(pp2+z*(pp3+z*pp4)))
			s := 1 + z*(qq1+z*(qq2+z*(qq3+z*(qq4+z*qq5))))
			y := r / s
			if a < 0.25 {
				temp = a + a*y
			} else {
				temp = 0.5 + (a*y + (a - 0.5))
			}
		}
		lo, hi = 1-temp, 1+temp
	case a < 1.25:
		s := a - 1
		P := pa0 + s*(pa1+s*(pa2+s*(pa3+s*(pa4+s*(pa5+s*pa6)))))
		Q := 1 + s*(qa1+s*(qa2+s*(qa3+s*(qa4+s*(qa5+s*qa6)))))
		lo, hi = 1-erx-P/Q, 1+erx+P/Q
	case a < 28:
		s := 1 / (a * a)
		var R, S float64
		if a < 1/0.35 {
			R = ra0 + s*(ra1+s*(ra2+s*(ra3+s*(ra4+s*(ra5+s*(ra6+s*ra7))))))
			S = 1 + s*(sa1+s*(sa2+s*(sa3+s*(sa4+s*(sa5+s*(sa6+s*(sa7+s*sa8)))))))
		} else {
			R = rb0 + s*(rb1+s*(rb2+s*(rb3+s*(rb4+s*(rb5+s*rb6)))))
			S = 1 + s*(sb1+s*(sb2+s*(sb3+s*(sb4+s*(sb5+s*(sb6+s*sb7))))))
		}
		z := math.Float64frombits(math.Float64bits(a) & 0xffffffff00000000) // pseudo-single (20-bit) precision a
		r := math.Exp(-z*z-0.5625) * math.Exp((z-a)*(z+a)+R/S)
		lo = r / a
		if a > 6 {
			hi = 2
		} else {
			hi = 2 - lo
		}
	case a >= 28: // including +Inf
		lo, hi = 0, 2
	default: // NaN
		lo, hi = a, a
	}
	if y < 0 {
		return 0.5 * lo, 0.5 * hi
	}
	return 0.5 * hi, 0.5 * lo
}
