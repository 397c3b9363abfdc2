//! The simulated trusted region.
//!
//! [`Enclave`] owns the sealed master secret and the user registry, hands
//! out per-epoch cryptographic material *only to code running "inside"*
//! (i.e. to callers holding the enclave value — the untrusted side of the
//! simulation only ever sees what explicitly crosses the boundary), and
//! exposes an authenticated [`Session`] from which the query-execution code
//! in `concealer-core` derives trapdoors.

use concealer_crypto::{EpochId, EpochKey, MasterKey};
use parking_lot::RwLock;
use std::sync::Arc;

use crate::meter::SideChannelMeter;
use crate::registry::{Credential, QueryScope, RegisteredUser, UserId, UserRegistry};
use crate::Result;

/// Configuration for the simulated enclave.
#[derive(Debug, Clone)]
pub struct EnclaveConfig {
    /// Whether the oblivious (Concealer+) code paths should be used.
    /// When `false`, the enclave behaves like the paper's baseline
    /// "Concealer" variant that assumes SGX is side-channel free.
    pub oblivious: bool,
    /// Enclave page-cache budget in tuples — the size above which the paper
    /// would sort with column sort instead of bitonic sort (footnote 5). No
    /// fetch unit here reaches it; the value only enters the attestation
    /// measurement.
    pub epc_tuple_budget: usize,
}

impl Default for EnclaveConfig {
    fn default() -> Self {
        EnclaveConfig {
            oblivious: false,
            epc_tuple_budget: 64 * 1024,
        }
    }
}

impl EnclaveConfig {
    /// Configuration for the oblivious Concealer+ variant.
    #[must_use]
    pub fn oblivious() -> Self {
        EnclaveConfig {
            oblivious: true,
            ..Self::default()
        }
    }
}

/// Derived epoch keys, memoized by `(epoch, round)` and shared across
/// enclave clones.
type KeyCache = Arc<parking_lot::Mutex<std::collections::HashMap<(u64, u64), Arc<EpochKey>>>>;

/// The simulated SGX enclave provisioned by the data provider.
#[derive(Clone)]
pub struct Enclave {
    master: MasterKey,
    registry: Arc<RwLock<UserRegistry>>,
    config: EnclaveConfig,
    meter: SideChannelMeter,
    /// Derived epoch keys, memoized by `(epoch, round)`. Key derivation is
    /// seven HMAC invocations plus three AES key schedules; the query path
    /// needs the same handful of keys for every bin it touches, so the
    /// cache turns a per-fetch KDF into a map lookup. Enclave-resident
    /// state only — nothing the adversary observes depends on it. Shared
    /// across clones (like the registry and the meter).
    key_cache: KeyCache,
}

/// Cap on memoized epoch keys; reaching it clears the map (keys re-derive
/// on demand, so eviction is only a memory bound, never a correctness one).
const KEY_CACHE_CAP: usize = 512;

impl std::fmt::Debug for Enclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enclave")
            .field("config", &self.config)
            .field("registered_users", &self.registry.read().len())
            .finish_non_exhaustive()
    }
}

impl Enclave {
    /// Provision an enclave with the shared secret and the (already
    /// decrypted) registry. In the real system the registry arrives
    /// encrypted and is unsealed inside the enclave; the simulation elides
    /// the transport encryption but keeps the authorization semantics.
    #[must_use]
    pub fn provision(master: MasterKey, registry: UserRegistry, config: EnclaveConfig) -> Self {
        Enclave {
            master,
            registry: Arc::new(RwLock::new(registry)),
            config,
            meter: SideChannelMeter::new(),
            key_cache: Arc::new(parking_lot::Mutex::new(std::collections::HashMap::new())),
        }
    }

    /// The enclave's side-channel meter (shared with all sessions).
    #[must_use]
    pub fn meter(&self) -> &SideChannelMeter {
        &self.meter
    }

    /// Whether this enclave runs the oblivious (Concealer+) code paths.
    #[must_use]
    pub fn is_oblivious(&self) -> bool {
        self.config.oblivious
    }

    /// The enclave configuration.
    #[must_use]
    pub fn config(&self) -> &EnclaveConfig {
        &self.config
    }

    /// Replace the registry (DP pushes an updated registry).
    pub fn update_registry(&self, registry: UserRegistry) {
        *self.registry.write() = registry;
    }

    /// Derive the key material for an epoch at a given re-encryption round.
    /// Only meaningful inside the trusted region; `concealer-core` calls
    /// this to build trapdoors and to decrypt fetched tuples. Derivations
    /// are memoized per `(epoch, round)`, so repeated calls on the query
    /// path cost a map lookup, not a KDF run.
    #[must_use]
    pub fn epoch_key(&self, epoch: EpochId, round_counter: u64) -> Arc<EpochKey> {
        let mut cache = self.key_cache.lock();
        if let Some(key) = cache.get(&(epoch.0, round_counter)) {
            return Arc::clone(key);
        }
        if cache.len() >= KEY_CACHE_CAP {
            cache.clear();
        }
        let key = Arc::new(self.master.epoch_key(epoch, round_counter));
        cache.insert((epoch.0, round_counter), Arc::clone(&key));
        key
    }

    /// Access the master key for DP-side simulation code (the data provider
    /// legitimately owns `sk`). Marked with a long name to discourage use
    /// from query-path code.
    #[must_use]
    pub fn master_key_for_data_provider(&self) -> &MasterKey {
        &self.master
    }

    /// Authenticate a user and open a query session.
    pub fn open_session(
        &self,
        user_id: UserId,
        credential: &Credential,
        scope: QueryScope,
    ) -> Result<Session> {
        let registry = self.registry.read();
        let entry = registry.authenticate(&self.master, user_id, credential, scope)?;
        Ok(Session {
            user: entry.clone(),
            scope,
            enclave: self.clone(),
        })
    }
}

/// An authenticated query session.
#[derive(Debug, Clone)]
pub struct Session {
    user: RegisteredUser,
    scope: QueryScope,
    enclave: Enclave,
}

impl Session {
    /// The authenticated user.
    #[must_use]
    pub fn user(&self) -> &RegisteredUser {
        &self.user
    }

    /// The scope this session was authorized for.
    #[must_use]
    pub fn scope(&self) -> QueryScope {
        self.scope
    }

    /// The enclave this session runs in.
    #[must_use]
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnclaveError;

    fn setup() -> (Enclave, Credential) {
        let master = MasterKey::from_bytes([7u8; 32]);
        let mut registry = UserRegistry::new();
        let cred = registry.register(&master, UserId(1), vec![55], true);
        let enclave = Enclave::provision(master, registry, EnclaveConfig::default());
        (enclave, cred)
    }

    #[test]
    fn session_opens_for_valid_user() {
        let (enclave, cred) = setup();
        let session = enclave
            .open_session(UserId(1), &cred, QueryScope::Aggregate)
            .unwrap();
        assert_eq!(session.user().user_id, UserId(1));
        assert_eq!(session.scope(), QueryScope::Aggregate);
    }

    #[test]
    fn session_rejected_for_wrong_credential() {
        let (enclave, _) = setup();
        let err = enclave
            .open_session(UserId(1), &Credential([9u8; 32]), QueryScope::Aggregate)
            .unwrap_err();
        assert_eq!(err, EnclaveError::AuthenticationFailed);
    }

    #[test]
    fn session_rejected_for_foreign_device() {
        let (enclave, cred) = setup();
        let err = enclave
            .open_session(
                UserId(1),
                &cred,
                QueryScope::Individualized { device_id: 999 },
            )
            .unwrap_err();
        assert!(matches!(err, EnclaveError::Unauthorized { .. }));
    }

    #[test]
    fn epoch_keys_match_data_provider_derivation() {
        let (enclave, _) = setup();
        let dp_master = MasterKey::from_bytes([7u8; 32]);
        let dp_key = dp_master.epoch_key(EpochId(3), 0);
        let enclave_key = enclave.epoch_key(EpochId(3), 0);
        assert_eq!(dp_key.det.encrypt(b"v"), enclave_key.det.encrypt(b"v"));
    }

    #[test]
    fn registry_update_takes_effect() {
        let (enclave, cred) = setup();
        // Push an empty registry: previously valid user is now rejected.
        enclave.update_registry(UserRegistry::new());
        assert_eq!(
            enclave
                .open_session(UserId(1), &cred, QueryScope::Aggregate)
                .unwrap_err(),
            EnclaveError::UnknownUser
        );
    }

    #[test]
    fn oblivious_config() {
        let e = Enclave::provision(
            MasterKey::from_bytes([1u8; 32]),
            UserRegistry::new(),
            EnclaveConfig::oblivious(),
        );
        assert!(e.is_oblivious());
        assert!(!format!("{e:?}").contains("master"));
    }
}
