package main

// pinnedDigests holds, by RunSpec.String, the canonical-JSON SHA-256 of
// each library run's result at the default seed; paper-slipstream's specs
// do not depend on the seed, so its pins hold at every seed. A change that
// alters any simulated statistic changes these.
var pinnedDigests = map[string]string{
	"OCEAN/paper slipstream/G0 @8 tl si":                                    "81e0fe88030fa610c843988a691bcfec109fecad5575b59fdd33e842e11c7c08",
	"SOR/paper slipstream/G0 @8 tl si":                                      "afcfde3d800e87f716b2517a5c948bba956a4705b59b59aad688af3ae028d890",
	"FFT/paper slipstream/G0 @8 tl si":                                      "68b08a838f26bbb7922b541f698cd8ce9c52d109e79873e6f268318a827fbe33",
	"SYNTH:fs=0.3,mig=0.3,pc=4,seed=1.733114211e+09,wr=0.3/paper double @8": "75d7a084c08b9d7db8ff956d0509dfd679f36c838121cdf3603048fd185b116d",
	"SYNTH:fs=0.3,mig=0.3,pc=4,seed=1.760678696e+09,wr=0.3/paper double @8": "8db9d737e74a4ed57ac6e7ff9a7c048d9f0ecab82738aea3350f74979d2cf175",
	"SYNTH:fs=0.3,mig=0.3,pc=4,seed=4.189630324e+09,wr=0.3/paper double @8": "d8afa43ab0ee5b2d3c7a37d526e86ec2b5466d7839879ff5faadb4fb767e43b4",
	"SYNTH:fs=0.3,mig=0.3,pc=4,seed=1.51424144e+09,wr=0.3/paper double @8":  "9c40fd8c366701dcbc719f096cdb49970e8c6307a9099b909c98f36424b0d3a3",
}
