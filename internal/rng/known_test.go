package rng

import (
	"math"
	"testing"
)

// Known answers: the streams below were recorded from this package before
// Uint64 and Bool were restructured for inlining, so any change to the
// xoshiro256** state update, the float conversion, Bool's comparison,
// Lemire's rejection in Uint64n, Perm's shuffle or Zipf's search shows up
// as a mismatched draw. Each sequence starts from a fresh source.

// knownProbs are the Bool probabilities pinned, including both ends of
// the open unit interval, the exact endpoints and NaN.
var knownProbs = []float64{0, 0x1p-53, 0.03, 0.3, 0.38, 0.95, 1 - 0x1p-53, 1, math.NaN()}

// knownBounds are Intn bounds that are not powers of two; the last two
// are large enough that Lemire's rejection step fires (the counts are in
// the comments of each stream's intns rows).
var knownBounds = []int{3, 1000, 3 << 61, 1<<62 + 1}

type knownStream struct {
	name     string
	src      func() *Source
	uint64s  [64]uint64
	float64s [64]float64
	bools    []uint64 // per knownProbs entry; bit i is draw i
	intns    [][16]int
	perm     [16]int
	zipf     [64]int // NewZipf(src, 14, 0.55)
}

var knownStreams = []knownStream{
	{
		name: "New(1994)",
		src:  func() *Source { return New(1994) },
		uint64s: [64]uint64{
			0x9874b070b06db40d, 0x74f4a7ddfbc13bcd, 0x37312a439d1b847a, 0xf390cb8adad21bd2,
			0xdbc7f3db01b9953d, 0x1c5002d83626d840, 0xe766bd7e636cd970, 0x18ab44d4a21df407,
			0x3ea118a88ab21101, 0x7461ccf0bde60d20, 0x0282f7de56e0498d, 0x80adbcac27fe3181,
			0xffb020dd73b15d9c, 0x9fc1d53c65643e23, 0x92fd72948424bcf0, 0xb76e85896c0a3a72,
			0x9c7a988227938a43, 0xdfbbd98c47f06972, 0x5dbbaf5792cf9c2a, 0x32069b2b18f92e89,
			0x2f8106b9fbb33fae, 0xb307f8644a759ac4, 0x53f05fe43d428ec3, 0xf81efc3b97b763b1,
			0x89cac0c81d3eb5e4, 0x4bd702c28084d94a, 0x0fb40ec59b8ad3b0, 0x09a30553ad863cd8,
			0x03f848b0bb2c478e, 0xb0af404994b9edc4, 0x458c34af2b0ba9fd, 0x15887464578f53a8,
			0xe0dd167937c746de, 0x8198982d87165f83, 0x89b746a85191dd14, 0x6825ecf3a2662983,
			0x5df1e101389fdd6b, 0xb86817b22a6ad3b3, 0x642ed8e063632e97, 0x8992904811c5e6d1,
			0x183c84585988fe04, 0xf07c033ae946286a, 0xf4e2ba0c33f6b70f, 0x57cdf3343284e381,
			0x75eef1dbef7bf681, 0xbf642a5f8c56a3e2, 0xe1d82efe099c82b7, 0x538056cb9e92d83b,
			0x683570c6d9e30f8a, 0xbb4336510a11fd20, 0xc82103f5c3f87016, 0x8ffa76d1a4f0df71,
			0x6409f12ba10e9e40, 0x9030f45eee1c8976, 0x5c2e7ab0fff62085, 0x9211eaa0cadfe2cf,
			0xc1540ccf00369697, 0x8cb5a584d0189cec, 0x8e8a349cfecc7448, 0x58059c0c7e60dc62,
			0x67c094f4b189962f, 0xcb6c33658e54ca0f, 0x2200ceebc956f5e3, 0xd858ebfcdd8a26b9,
		},
		float64s: [64]float64{
			0x1.30e960e160db6p-01, 0x1.d3d29f77ef04ep-02, 0x1.b989521ce8dcp-03, 0x1.e7219715b5a43p-01,
			0x1.b78fe7b603732p-01, 0x1.c5002d83626d8p-04, 0x1.cecd7afcc6d9bp-01, 0x1.8ab44d4a21dfp-04,
			0x1.f508c54455908p-03, 0x1.d18733c2f7982p-02, 0x1.417bef2b7024p-07, 0x1.015b79584ffc6p-01,
			0x1.ff6041bae762bp-01, 0x1.3f83aa78cac87p-01, 0x1.25fae52908497p-01, 0x1.6edd0b12d8147p-01,
			0x1.38f531044f271p-01, 0x1.bf77b3188fe0dp-01, 0x1.76eebd5e4b3e6p-02, 0x1.9034d958c7c94p-03,
			0x1.7c0835cfdd99cp-03, 0x1.660ff0c894eb3p-01, 0x1.4fc17f90f50a2p-02, 0x1.f03df8772f6ecp-01,
			0x1.139581903a7d6p-01, 0x1.2f5c0b0a02136p-02, 0x1.f681d8b3715ap-05, 0x1.3460aa75b0c7p-05,
			0x1.fc24585d962p-07, 0x1.615e80932973dp-01, 0x1.1630d2bcac2eap-02, 0x1.5887464578f5p-04,
			0x1.c1ba2cf26f8e8p-01, 0x1.0331305b0e2cbp-01, 0x1.136e8d50a323bp-01, 0x1.a097b3ce8998ap-02,
			0x1.77c78404e27f6p-02, 0x1.70d02f6454d5ap-01, 0x1.90bb63818d8cap-02, 0x1.13252090238bcp-01,
			0x1.83c84585988f8p-04, 0x1.e0f80675d28c5p-01, 0x1.e9c5741867ed6p-01, 0x1.5f37ccd0ca138p-02,
			0x1.d7bbc76fbdefcp-02, 0x1.7ec854bf18ad4p-01, 0x1.c3b05dfc1339p-01, 0x1.4e015b2e7a4b6p-02,
			0x1.a0d5c31b678c2p-02, 0x1.76866ca21423fp-01, 0x1.904207eb87f0ep-01, 0x1.1ff4eda349e1bp-01,
			0x1.9027c4ae843a6p-02, 0x1.2061e8bddc391p-01, 0x1.70b9eac3ffd88p-02, 0x1.2423d54195bfcp-01,
			0x1.82a8199e006d2p-01, 0x1.196b4b09a0313p-01, 0x1.1d146939fd98ep-01, 0x1.60167031f9836p-02,
			0x1.9f0253d2c6264p-02, 0x1.96d866cb1ca99p-01, 0x1.1006775e4ab78p-03, 0x1.b0b1d7f9bb144p-01,
		},
		bools: []uint64{ // bit i is draw i
			0x0000000000000000, // 0
			0x0000000000000000, // 0x1p-53
			0x0000000010000400, // 0.03
			0x40000100de1805a4, // 0.3
			0x48408910de5c05a4, // 0.38
			0xfffffbffff7feff7, // 0.95
			0xffffffffffffffff, // 1 - 0x1p-53
			0xffffffffffffffff, // 1
			0x0000000000000000, // math.NaN()
		},
		intns: [][16]int{ // n as in knownBounds
			{1, 1, 0, 2, 2, 0, 2, 0, 0, 1, 0, 1, 2, 1, 1, 2},                              // 0 rejected draws
			{595, 456, 215, 951, 858, 110, 903, 96, 244, 454, 9, 502, 998, 624, 574, 716}, // 0 rejected draws
			{4119599770914857860, 3160329515463898732, 1491377405936947629, 6581531829412481646, 5938835526233987062, 666596309239282562, 1692343280160917088, 67867301010217876, 3477102995781407376, 6909098329152586522, 4956618293118227946, 6045644432860653450, 2532819321312107151, 1351777185435578739, 1283634220364937185, 4837707287720892937}, // 6 rejected draws
			{2746399847276571907, 2106886343642599155, 994251603957965086, 4387687886274987765, 4168555755229361756, 444397539492855041, 1128228853440611392, 2096552328872690504, 45244867340145251, 2318068663854271584, 4606065552768391015, 2877929144477880201, 2647936970210750268, 2818873075463152273, 4030429621907102301, 1688546214208071434},  // 3 rejected draws
		},
		perm: [16]int{5, 4, 7, 14, 2, 8, 13, 11, 0, 15, 1, 10, 12, 3, 6, 9},
		zipf: [64]int{5, 3, 1, 12, 10, 0, 11, 0, 1, 3, 0, 4, 13, 6, 5, 7, 6, 11, 2, 1, 1, 7, 2, 13, 4, 2, 0, 0, 0, 7, 1, 0, 11, 4, 4, 3, 2, 7, 3, 4, 0, 12, 12, 2, 3, 8, 11, 2, 3, 8, 9, 5, 3, 5, 2, 5, 8, 5, 5, 2, 3, 9, 0, 10},
	},
	{
		name: "New(1994).Split(\"child\")",
		src:  func() *Source { return New(1994).Split("child") },
		uint64s: [64]uint64{
			0x6c86d8d89cf41d28, 0xb29b081c8549963b, 0x8db440b38538c6ea, 0x8bc12da63e496160,
			0x86e2b1d6c2f09334, 0x0f0bd29ca9955b66, 0x3f4e0f8e18aa3c19, 0xf3a2b60ddab8e399,
			0x6e814543abd5473d, 0x6b582aa259927f2f, 0x4940d555d79e6867, 0xf3406c1b17022c63,
			0x1596f540ee24123c, 0x18dc8abc3e39d2cb, 0x4d51099bea0e6dac, 0x98b5be0764e43660,
			0x68346ee4694949ae, 0x20b83c5d87fb89d3, 0x7341c7baf636c242, 0xca999691c56f0b8c,
			0xc665e58d8328721f, 0x4a7ab5ce746460a6, 0xe4a429a30ba5fbf9, 0xd59ce9fadb99f389,
			0x9999f5049696d831, 0x8c18acb65fd03e8c, 0x85a135e0e4f8efc3, 0xeced1d381e4020c2,
			0xc7e931d6dd90312c, 0x56f60c402a361fee, 0x98b9011c2d316b1e, 0x75600391885d6601,
			0x3b221c7d247a46d9, 0xf742f406f15a568f, 0xccf813bddea325bf, 0x1262e1f2c68085fc,
			0x80b8da38693a00fb, 0x2a70c7692497d893, 0xf46bee2816cf371c, 0x2e275453791b6368,
			0x343a5721daff8f92, 0xf1608a841e4a1add, 0xdcbe5e37610458a5, 0x67d8457d2b2addc9,
			0x06c7ba6420b09285, 0x78afb36e7a0a42ba, 0x8d18267a5c765541, 0x59334b57eed44066,
			0x442f2cb48ca7b95b, 0x8c7914e5754ee936, 0x90db63821ee3dfce, 0xedd461c93ed47048,
			0x33486f64060d6985, 0xab44b40d9c5c9ebc, 0xbbb1671c5b0ad356, 0xf87334d729378a04,
			0x88594d5936776cf8, 0xec308bc2f9d94c74, 0x4572b5df17b351a9, 0xb469c5ad1ee6cf65,
			0xf3fe87deb2636e49, 0x4030046b99202136, 0xe4f04cfebc37faae, 0xcf60f9b7448d4079,
		},
		float64s: [64]float64{
			0x1.b21b636273d06p-02, 0x1.653610390a932p-01, 0x1.1b6881670a718p-01, 0x1.17825b4c7c92cp-01,
			0x1.0dc563ad85e12p-01, 0x1.e17a539532abp-05, 0x1.fa707c70c551cp-03, 0x1.e7456c1bb571cp-01,
			0x1.ba05150eaf55p-02, 0x1.ad60aa896649ep-02, 0x1.250355575e79ap-02, 0x1.e680d8362e045p-01,
			0x1.596f540ee241p-04, 0x1.8dc8abc3e39dp-04, 0x1.3544266fa839ap-02, 0x1.316b7c0ec9c86p-01,
			0x1.a0d1bb91a5252p-02, 0x1.05c1e2ec3fdc4p-03, 0x1.cd071eebd8dbp-02, 0x1.95332d238ade1p-01,
			0x1.8ccbcb1b0650ep-01, 0x1.29ead739d1918p-02, 0x1.c9485346174bfp-01, 0x1.ab39d3f5b733ep-01,
			0x1.3333ea092d2dbp-01, 0x1.1831596cbfa07p-01, 0x1.0b426bc1c9f1dp-01, 0x1.d9da3a703c804p-01,
			0x1.8fd263adbb206p-01, 0x1.5bd83100a8d86p-02, 0x1.317202385a62dp-01, 0x1.d5800e4621758p-02,
			0x1.d910e3e923d2p-03, 0x1.ee85e80de2b4ap-01, 0x1.99f0277bbd464p-01, 0x1.262e1f2c6808p-04,
			0x1.0171b470d274p-01, 0x1.53863b4924becp-03, 0x1.e8d7dc502d9e6p-01, 0x1.713aa29bc8dbp-03,
			0x1.a1d2b90ed7fc4p-03, 0x1.e2c115083c943p-01, 0x1.b97cbc6ec208bp-01, 0x1.9f6115f4acab6p-02,
			0x1.b1ee99082c24p-06, 0x1.e2becdb9e829p-02, 0x1.1a304cf4b8ecap-01, 0x1.64cd2d5fbb51p-02,
			0x1.10bcb2d2329eep-02, 0x1.18f229caea9ddp-01, 0x1.21b6c7043dc7bp-01, 0x1.dba8c3927da8ep-01,
			0x1.9a437b20306b4p-03, 0x1.5689681b38b93p-01, 0x1.7762ce38b615ap-01, 0x1.f0e669ae526f1p-01,
			0x1.10b29ab26ceedp-01, 0x1.d8611785f3b29p-01, 0x1.15cad77c5ecd4p-02, 0x1.68d38b5a3dcd9p-01,
			0x1.e7fd0fbd64c6dp-01, 0x1.00c011ae64808p-02, 0x1.c9e099fd786ffp-01, 0x1.9ec1f36e891a8p-01,
		},
		bools: []uint64{ // bit i is draw i
			0x0000000000000000, // 0
			0x0000000000000000, // 0x1p-53
			0x0000100000000000, // 0.03
			0x241111a900223460, // 0.3
			0x241191a920227460, // 0.38
			0xef7fffbdfffff77f, // 0.95
			0xffffffffffffffff, // 1 - 0x1p-53
			0xffffffffffffffff, // 1
			0x0000000000000000, // math.NaN()
		},
		intns: [][16]int{ // n as in knownBounds
			{1, 2, 1, 1, 1, 0, 0, 2, 1, 1, 0, 2, 0, 0, 0, 1},                              // 0 rejected draws
			{423, 697, 553, 545, 526, 58, 247, 951, 431, 419, 286, 950, 84, 97, 302, 596}, // 0 rejected draws
			{3829071523100314263, 3644822430663980851, 406571889605476934, 1710600215829927561, 6583422925523998041, 2986020664918407862, 2900617213794250673, 1979419997979240230, 583387642696926934, 2089216792232028448, 2815780652261800865, 3114427047621200088, 5474574457471870036, 5361031870541671115, 2012550676607247422, 6178252168904982141}, // 7 rejected draws
			{1955044056958306122, 3217472319682405775, 2517595108452489304, 2429881620442653901, 271047926403651289, 1140400143886618374, 1990680443278938575, 4382032153332976409, 447864823222269106, 1392811194821352299, 2750977550879100312, 1877187101507867243, 589425194334872180, 2076284698414133392, 3649716304981246691, 3574021247027780744},  // 5 rejected draws
		},
		perm: [16]int{5, 11, 12, 14, 4, 1, 9, 3, 8, 2, 0, 15, 13, 7, 10, 6},
		zipf: [64]int{3, 7, 5, 5, 4, 0, 1, 12, 3, 3, 1, 12, 0, 0, 2, 5, 3, 0, 3, 9, 8, 1, 11, 10, 5, 5, 4, 12, 9, 2, 5, 3, 1, 13, 9, 0, 4, 0, 12, 1, 1, 12, 10, 3, 0, 4, 5, 2, 1, 5, 5, 12, 1, 7, 8, 13, 4, 12, 1, 7, 12, 1, 11, 9},
	},
}

func TestKnownAnswers(t *testing.T) {
	for _, k := range knownStreams {
		r := k.src()
		for i, want := range k.uint64s {
			if got := r.Uint64(); got != want {
				t.Fatalf("%s: Uint64 draw %d = %#x, want %#x", k.name, i, got, want)
			}
		}
		r = k.src()
		for i, want := range k.float64s {
			if got := r.Float64(); got != want {
				t.Fatalf("%s: Float64 draw %d = %x, want %x", k.name, i, got, want)
			}
		}
		for j, p := range knownProbs {
			r = k.src()
			var got uint64
			for i := 0; i < 64; i++ {
				if r.Bool(p) {
					got |= 1 << i
				}
			}
			if got != k.bools[j] {
				t.Fatalf("%s: Bool(%v) draws %064b, want %064b", k.name, p, got, k.bools[j])
			}
		}
		for j, n := range knownBounds {
			r = k.src()
			for i, want := range k.intns[j] {
				if got := r.Intn(n); got != want {
					t.Fatalf("%s: Intn(%d) draw %d = %d, want %d", k.name, n, i, got, want)
				}
			}
		}
		if got := k.src().Perm(16); [16]int(got) != k.perm {
			t.Fatalf("%s: Perm(16) = %v, want %v", k.name, got, k.perm)
		}
		z := NewZipf(k.src(), 14, 0.55)
		for i, want := range k.zipf {
			if got := z.Draw(); got != want {
				t.Fatalf("%s: Zipf draw %d = %d, want %d", k.name, i, got, want)
			}
		}
	}
}

// TestBoolMatchesFloat64: Bool(p) is Float64() < p for every p, drawn on
// two copies of one state. Random p cover the interior; p = k·2^-53 and
// its neighbours one ulp away are where a scaled comparison could round
// differently from the division Float64 performs.
func TestBoolMatchesFloat64(t *testing.T) {
	r, pr := New(7), New(8)
	check := func(p float64) {
		a := *r
		b := a
		if got, want := a.Bool(p), b.Float64() < p; got != want {
			t.Fatalf("state %x: Bool(%x) = %v, Float64() < p = %v", r.State(), p, got, want)
		}
		r.Uint64()
	}
	for i := 0; i < 20000; i++ {
		check(pr.Float64())
		check(pr.Float64() * 1e-12)
		// Aim p at the draw itself, so equality and both neighbours occur.
		next := *r
		p := float64(next.Uint64()>>11) / (1 << 53)
		check(p)
		check(math.Nextafter(p, 0))
		check(math.Nextafter(p, 2))
	}
	for _, p := range []float64{0, math.SmallestNonzeroFloat64, 0x1p-1074, 0x1p-1022,
		1, math.Nextafter(1, 2), 2, math.Inf(1), math.Inf(-1), -0.5, math.NaN()} {
		for i := 0; i < 64; i++ {
			check(p)
		}
	}
}
