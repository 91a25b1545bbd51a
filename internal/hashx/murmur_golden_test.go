package hashx

import "testing"

// murmur3Golden holds Murmur3_128 of the first n bytes of
// murmur3GoldenInput, n = 0..48, under three seeds. The values were
// recorded from the byte-at-a-time implementation at commit 347a35f,
// before the short-key path existed, and are never regenerated: every
// register file and bit array on disk was addressed with them.
var murmur3Golden = []struct {
	seed uint64
	want [49][2]uint64
}{
	{seed: 0x0, want: [49][2]uint64{
		{0x0000000000000000, 0x0000000000000000}, // 0
		{0x932fc7cce617f1e7, 0x7a434b816c4508dc}, // 1
		{0xcff7e5ae5471b39d, 0x8549c3b277c47536}, // 2
		{0x6afac0b8de81a4b1, 0x0cdcf4fb816ab243}, // 3
		{0xd3a4eed1b81f9f72, 0x8f4cf22ad9a420cd}, // 4
		{0xb0330f40087f990b, 0xad93f9759963f50b}, // 5
		{0x32d1f10b04077a12, 0x4b5791ad3829937e}, // 6
		{0x8340cc686662983b, 0xa08f38dfaa7ff6f9}, // 7
		{0xf0b144007f89ced7, 0xd02221832d7af9a1}, // 8
		{0xdbb3088eaec8a0b1, 0xcbde24182efe09a9}, // 9
		{0x7fc82ef8fd4f371e, 0x7a1ac716596298b0}, // 10
		{0xce105a4d0920d564, 0xc5c7129b727fc1d6}, // 11
		{0x11eea59fafc3bbb8, 0xde304d589b0ddbf8}, // 12
		{0x3c0bc0c7790cc4e7, 0xf34ba40d12f9b27e}, // 13
		{0x4af05278beeea171, 0x27302e3cea75fb09}, // 14
		{0x2906f047b67f83ff, 0x49ca338fe7701fac}, // 15
		{0xda9c66580c5ef0fb, 0x885aae87bb6c5ff7}, // 16
		{0x78b8ee9a775e07d1, 0xe36790301698fce0}, // 17
		{0x5022ece9b605f7d8, 0x16d1b21eec8d67ac}, // 18
		{0x40591a6345e2fd5e, 0x3d2b31d643027caf}, // 19
		{0xf85aeb21888559f3, 0xa65eec4ab46824ee}, // 20
		{0x2c128c13418db6f3, 0x93818c98df190fa8}, // 21
		{0xc0ffc3389f035072, 0x6dfadfaec1dcf534}, // 22
		{0x01b7d4fb84dc53aa, 0x5ad5c324b9edfa99}, // 23
		{0x8372e2feeb61eb1c, 0xe8f405aaf3f01b03}, // 24
		{0xed9e2943729d5da2, 0x704bb843bd5ff913}, // 25
		{0x9fcd422e337cdec4, 0x628fa90e86818db5}, // 26
		{0x454a6a1202a0fd74, 0xe3a5ff0398ea8b76}, // 27
		{0xc2ea419f1d4c02de, 0x82b2e058cfa3ecda}, // 28
		{0x2ab2e5425a3cf241, 0xbef6e3ba00dbfc06}, // 29
		{0xfde530955c73468b, 0x3e2a6a483ba0dd7c}, // 30
		{0xb1ca061ed4c5532f, 0xcb6926489e7b3763}, // 31
		{0xaf7374eb8efe799b, 0x3a5200924dcdd6ff}, // 32
		{0x08b88a88c3099ba9, 0x15c06fbdb5df8af9}, // 33
		{0x46e6fbb70374f1b8, 0xc970e3964acebd94}, // 34
		{0x3db6d4b9af498f9f, 0xa38faf048c7c1306}, // 35
		{0xaee3ca841fccf7f7, 0x1c67089590905310}, // 36
		{0xff4d3072c71df4b3, 0x4b78961252ae7b6c}, // 37
		{0x5003e0c3f8da178f, 0x437d03b403801e49}, // 38
		{0x244221d812da51c7, 0x836db813dc4ac3f8}, // 39
		{0xbf77aa22e65e7cfc, 0x15f2951b4c05748b}, // 40
		{0xafe61046cef62299, 0x9e44ee6c0d43348d}, // 41
		{0xd399755800b2c22d, 0x766e59761c045fbd}, // 42
		{0x1849de9708ba69d7, 0xe4ad81f93aee697a}, // 43
		{0xe80b60a506ce9e24, 0xa4c797d79cda74ac}, // 44
		{0xd951dce034a50505, 0x0054e34b69e7aef6}, // 45
		{0x35b3562a44e85065, 0x68b905305af3fb4f}, // 46
		{0x9c44bcfc4e0f366b, 0x9c4db2d1fe929fe0}, // 47
		{0x5fbe7eca19a4e9ed, 0x60b65c120177ad6c}, // 48
	}},
	{seed: 0x2a, want: [49][2]uint64{
		{0xf02aa77dfa1b8523, 0xd1016610da11cbb9}, // 0
		{0x1495b72690ad6b49, 0xb9f37a295a460be8}, // 1
		{0x22f631fa60c22608, 0x395cfbb3ae9b04be}, // 2
		{0xb4eb76eae8abab80, 0xab180ac3f390b911}, // 3
		{0x19f4b7e99d91b549, 0x429771fbe5be4ac5}, // 4
		{0x78d77c76b40ee0fc, 0xb991ac5fcab71c81}, // 5
		{0xcfa7affa1efd7ba5, 0x548757bc8f012656}, // 6
		{0xc1a4b41f44ebdb31, 0x3462c34727c5759f}, // 7
		{0xb3381f253f1f2b67, 0xcdf4a727435b63a7}, // 8
		{0x2b9d4be3cfbdcc3f, 0x51bb1137ee50f5f3}, // 9
		{0x8561a9b67b54029c, 0x74ff26593bcc8be7}, // 10
		{0xba7f85952273472a, 0xd26b752a9db04138}, // 11
		{0x866ef056ae2620ad, 0xce1dd0ceb2cfc413}, // 12
		{0x5743a54b88d07266, 0x231d088df0f9941f}, // 13
		{0x68c53df623f889ec, 0xdecc57ba967958a8}, // 14
		{0x13ec2b575f368709, 0x6ed32837b07a729a}, // 15
		{0x0db7e57d84e9115e, 0xa351713a540fc47b}, // 16
		{0x6753dd78b706ca59, 0xe896d0c8eebdd764}, // 17
		{0xdf05643aecea4efa, 0x6a7af0ccc80c646c}, // 18
		{0xbb3024b1cb43e62e, 0xba49c5a903c765a7}, // 19
		{0x0d53be10d250a7f8, 0x71192cabac28b75f}, // 20
		{0x4575c97d55d93e33, 0x3cdc63217b12ff0e}, // 21
		{0x3b714647e699f822, 0x911f3fb2a0f2976b}, // 22
		{0xc5ee6f09416c6ce1, 0xa9c1e29c0517ddc1}, // 23
		{0x0a866149d2508204, 0x5442314f081efe0e}, // 24
		{0x45f006b258382270, 0x8f66bfd548a42354}, // 25
		{0x1f2ef47649081f95, 0x48861faefde164ff}, // 26
		{0x4a20fff3b1be52c3, 0x87bcea3e5deaade7}, // 27
		{0xf9ba5bd63ea114d6, 0x35ae93fe69e3756d}, // 28
		{0x8509edddd0cc291b, 0x6a75655475e49b88}, // 29
		{0xe9e80e350be450e5, 0x4b3b798fc446a98e}, // 30
		{0x4b6b129b8686ccd5, 0xd4b0319632b43b9e}, // 31
		{0xcdae700c6caa0324, 0x8b220a58f37c28c2}, // 32
		{0x1bb4cea7ea9f8f2c, 0xa370e05ed1e5b6e5}, // 33
		{0x8ca7658b199e6cfd, 0xfad0242df8f9e950}, // 34
		{0x38919621908dd2c6, 0xb2de91bd6ab59f9f}, // 35
		{0x6106d6057cb15fb0, 0x9e0eb94af23d3108}, // 36
		{0x1997fc8acbb5e3bc, 0x39593716fc0aeb04}, // 37
		{0xf11f305524b78954, 0x926e53038d00e33a}, // 38
		{0x19a9e9e2c00c04ee, 0xc6b6279bf58b889e}, // 39
		{0x1e0a94ce7d6f094d, 0x73768e93a3bf1e3c}, // 40
		{0xdf42bb2b424c6cce, 0x6506e138f710f873}, // 41
		{0x8cbdb438e49fc6c1, 0x2d05a7f6ef8b4eb1}, // 42
		{0xcacc4fa9e90d5e7c, 0x4c069d3fd3661573}, // 43
		{0xe48703bbbf4580c3, 0x6686519bc75ec914}, // 44
		{0x80f13689d311bd8d, 0xbd70899fa9070c4b}, // 45
		{0x9f1bad474107c221, 0x6964e3734f375056}, // 46
		{0xf97feab6e4635b7f, 0x36e789b15e9fdb80}, // 47
		{0x331abafd2b9b925e, 0x9008e1f66dd0c666}, // 48
	}},
	{seed: 0xffffffffffffffff, want: [49][2]uint64{
		{0xe4c18f38c65bd6ed, 0x8efd8ae920620daf}, // 0
		{0x608c263b08f1543f, 0xea57ae3fa6b8e531}, // 1
		{0xe9e3ff41a42a1981, 0xf56f5d587f0f309d}, // 2
		{0xf977bb4ab55dc708, 0x8f4925675da8baad}, // 3
		{0x7f1cacd930c635b9, 0x5dbf977189f6d959}, // 4
		{0x270a174b80856cb2, 0x54b708d21057ac9b}, // 5
		{0x6bc71b6ea4aae7f1, 0x4b010de8324772a0}, // 6
		{0xcef4f8176a5b76e9, 0xb90b09f16674ffd9}, // 7
		{0xb61215884d12d97e, 0x5faad0188a75b66e}, // 8
		{0x38b80540e41e9cb0, 0xbd46aadc0066f931}, // 9
		{0xbfcdf449795ae815, 0xd56e64ffa87909f8}, // 10
		{0x2ee56c514ca811c1, 0x705af3267b4c93c0}, // 11
		{0x506de0901cce0d0e, 0x64a94587d244213e}, // 12
		{0x64d77b5f15df29f8, 0x4dec379debbb07aa}, // 13
		{0x65816034c72154e6, 0x3930401ad71bbb81}, // 14
		{0xc5e8c171cbfb4e14, 0x2e7bcd62c28f3795}, // 15
		{0x3c483bae69d98a19, 0xc798858579de84b1}, // 16
		{0xfa712b7552295d33, 0x3e71a5d642cd1f7c}, // 17
		{0xd0c7f32ab7865fd5, 0x3a1c241311a48a3e}, // 18
		{0xee94aa44a73050c4, 0xf8e2436401c76d06}, // 19
		{0x0b96f7da9be91878, 0x507122e720587516}, // 20
		{0x7c2d817dedb9abe7, 0xc6a7bb69155386d1}, // 21
		{0x24b5be9de0344358, 0x28363c8804587fed}, // 22
		{0x0d5bea221372496e, 0x3ae87b95af894b74}, // 23
		{0x8e2effb3bacbeb88, 0x43b65cc211c8ea8d}, // 24
		{0x38b6b8712315ea8b, 0x7aa4dd0411c14ac9}, // 25
		{0xc7b7e2e1c7c6860f, 0xfe290a2f5911e4a5}, // 26
		{0x9c33bdc638f37432, 0xa2aedf83d131a494}, // 27
		{0xcded9a8fdb78b864, 0x6ec4377f6760ca78}, // 28
		{0x5e4d225d80a55def, 0x54cc5bc2203c96ac}, // 29
		{0x42baf43c6002626f, 0x5f0c292f68c89f74}, // 30
		{0xba85b12bbf430cb4, 0xb9c49d387c4d50bf}, // 31
		{0x4abc7f38abb61837, 0xe7e442bbebd058e6}, // 32
		{0x518970870222c16e, 0xb81139e7b65fc85e}, // 33
		{0x425bd85adb428c1e, 0x95044c6eb8333959}, // 34
		{0x91e84cc0115cfe03, 0x201072b5a9b9f75c}, // 35
		{0xf3a7d2424d668ad2, 0x6c0e3e74a16013b0}, // 36
		{0x06d9f64add8f0708, 0x51c6c16ae9003e7f}, // 37
		{0xbc1fc87fa4736a13, 0x1aecfe2688947bdf}, // 38
		{0x804e61694f168834, 0x243c0c0dd9bed97b}, // 39
		{0x739e3ca0fb56d9d6, 0x994690ffc51c15c6}, // 40
		{0x906255de0047a85f, 0xc0977dffe3ea96b0}, // 41
		{0xa7eb03c52a18c25c, 0x9d12d90ac5c5ff86}, // 42
		{0xb683e14d6963245d, 0x75aa2091a83680c9}, // 43
		{0x251894102d0320c6, 0x46f2465acec7a3f0}, // 44
		{0x111add02352373ab, 0xe840b21ca08212dd}, // 45
		{0xeddca60d08ac100b, 0xd284e1271926a036}, // 46
		{0xc8f25c7c2c9384e1, 0x61d33418b9c54455}, // 47
		{0xff95e26d5c2b68c1, 0x898d6b26db4e9d58}, // 48
	}},
}

// murmur3GoldenInput is the 48-byte string the table hashes prefixes of.
func murmur3GoldenInput() []byte {
	data := make([]byte, 48)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	return data
}

// TestMurmur3EveryLengthGolden pins (h1, h2) for every length 0-48:
// the empty key, each of the fifteen tail lengths alone (the short-key
// path), and each of them behind one and two full 16-byte blocks.
func TestMurmur3EveryLengthGolden(t *testing.T) {
	data := murmur3GoldenInput()
	for _, g := range murmur3Golden {
		for n, want := range g.want {
			if h1, h2 := Murmur3_128(data[:n], g.seed); h1 != want[0] || h2 != want[1] {
				t.Errorf("Murmur3_128(len %d, seed %#x) = (%#x, %#x), want (%#x, %#x)", n, g.seed, h1, h2, want[0], want[1])
			}
			if h1, h2 := Murmur3_128String(string(data[:n]), g.seed); h1 != want[0] || h2 != want[1] {
				t.Errorf("Murmur3_128String(len %d, seed %#x) = (%#x, %#x), want (%#x, %#x)", n, g.seed, h1, h2, want[0], want[1])
			}
		}
	}
}
